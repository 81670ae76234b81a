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
    Basis,
    BellState,
    PauliCorrection,
    Rng,
    fidelity_up_to_phase,
    measure,
    measure_bell,
    overlap,
    postselect,
    postselect_bell,
    tensor,
)

CHI_AMPLITUDE = 1.0 / (2.0 * math.sqrt(2.0))

_CHI_PLUS_KETS = (0b0000, 0b0011, 0b0110, 0b1001, 0b1010, 0b1100)
_CHI_MINUS_KETS = (0b0101, 0b1111)

_CHI_AMPS = np.zeros(16, dtype=complex)
for _ket in _CHI_PLUS_KETS:
    _CHI_AMPS[_ket] = CHI_AMPLITUDE
for _ket in _CHI_MINUS_KETS:
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
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def minus(cls) -> "MessageQubit":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, -s)

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


def all_outcomes() -> list[TeleportOutcomes]:
    """The 16 outcome triples in (z1, bell, z4) lexicographic order."""
    return [
        TeleportOutcomes(z1, bell, z4)
        for z1 in (0, 1)
        for bell in BellState
        for z4 in (0, 1)
    ]


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


# The table's corrections as matrices, in ``all_outcomes`` order.
_CORRECTION_MATRICES = np.array([_TABLE[(o.z1, o.bell_m2, o.z4)][1].matrix for o in all_outcomes()])


def correction_matrices(z1: Sequence[int], bell_bits: Sequence[int], z4: Sequence[int]) -> np.ndarray:
    """``correction_for`` of n instances at once, as an (n, 2, 2) stack of matrices.

    ``z1`` and ``z4`` hold one Z outcome per instance, ``bell_bits`` the
    two bits of each Bell outcome in turn.
    """
    bell = np.asarray(bell_bits).reshape(-1, 2)
    return _CORRECTION_MATRICES[8 * np.asarray(z1) + 4 * bell[:, 0] + 2 * bell[:, 1] + np.asarray(z4)]


def _table_collapsed(table: dict, outcomes: TeleportOutcomes, m: MessageQubit) -> np.ndarray:
    """Particle 3's pre-correction state as ``table``'s coefficient column gives it."""
    c0a, c0b, c1a, c1b = table[(outcomes.z1, outcomes.bell_m2, outcomes.z4)][0]
    return np.array([c0a * m.a + c0b * m.b, c1a * m.a + c1b * m.b], dtype=complex)


def collapsed_state_for(outcomes: TeleportOutcomes, m: MessageQubit) -> np.ndarray:
    """Particle 3's state after the three measurements, before correction."""
    return _table_collapsed(_TABLE, outcomes, m)


# Joint-register qubit layout used below: (m, 1, 2, 3, 4) = indices 0..4.
Q_M, Q_1, Q_2, Q_3, Q_4 = 0, 1, 2, 3, 4


def joint_state(m: MessageQubit) -> np.ndarray:
    """The five-qubit state message (x) carrier, qubit order (m, 1, 2, 3, 4)."""
    return tensor(m.state(), prepare_chi())


def _particle3_state(collapsed: np.ndarray, outcomes: TeleportOutcomes) -> np.ndarray:
    """Extract particle 3's single-qubit state after all three projections.

    The post-measurement register factorizes as |bell>_{m,2} (x) |z1>_1
    (x) |z4>_4 (x) |v>_3; contracting against the known factors leaves v.
    """
    t = collapsed.reshape((2,) * 5)
    t = t[:, outcomes.z1, :, :, outcomes.z4]  # axes (m, 2, 3)
    bv = outcomes.bell_m2.vector.reshape(2, 2)
    v = np.einsum("ab,abc->c", bv.conj(), t)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError(f"branch {outcomes} has zero weight; cannot extract particle 3")
    return v / norm


def run_teleportation(m: MessageQubit, rng: Rng) -> tuple[TeleportOutcomes, np.ndarray]:
    """Sampled end-to-end teleportation of one message qubit.

    Measures in the fixed order: Z on particle 1, Bell on (m, 2), Z on
    particle 4; then applies the looked-up correction to particle 3 and
    returns (outcomes, recovered particle-3 state).  The recovered state
    equals the message up to global phase.
    """
    state = joint_state(m)
    z1, state = measure(state, Q_1, Basis.Z, rng)
    bell, state = measure_bell(state, Q_M, Q_2, rng)
    z4, state = measure(state, Q_4, Basis.Z, rng)
    outcomes = TeleportOutcomes(z1, bell, z4)
    recovered = _particle3_state(state, outcomes)
    corr = correction_for(outcomes)
    return outcomes, corr.matrix @ recovered


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

    @property
    def degenerate(self) -> bool:
        return len(self.fidelity_one_corrections) > 1


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

    def phase_flipped(self) -> list[TeleportOutcomes]:
        """Branches whose recovery carries a -1 global phase."""
        return [b.outcomes for b in self.branches if b.recovery_phase.real < 0]


def _force_branch(omega: np.ndarray, outcomes: TeleportOutcomes, *, reverse: bool = False) -> tuple[float, np.ndarray | None]:
    """Project the joint state onto one outcome triple; returns (prob, state)."""
    steps = [
        lambda s: postselect(s, Q_1, Basis.Z, outcomes.z1),
        lambda s: postselect_bell(s, Q_M, Q_2, outcomes.bell_m2),
        lambda s: postselect(s, Q_4, Basis.Z, outcomes.z4),
    ]
    if reverse:
        steps.reverse()
    prob = 1.0
    state: np.ndarray | None = omega
    for step in steps:
        p, state = step(state)
        prob *= p
        if state is None:
            return prob, None
    return prob, state


def forced_branch_particle3(m: MessageQubit, outcomes: TeleportOutcomes) -> tuple[float, np.ndarray]:
    """Branch probability and particle 3's projected state, no sampling.

    First-principles route used by oracles: projects the joint state
    onto one outcome triple and extracts particle 3, without consulting
    the correction table's collapsed-state column.
    """
    prob, state = _force_branch(joint_state(m), outcomes)
    if state is None:
        raise ValueError(f"branch {outcomes} has zero probability")
    return prob, _particle3_state(state, outcomes)


def verify_correction_table(
    m: MessageQubit, *, tolerance: float = 1e-10, check_table: dict | None = None
) -> TableAuditReport:
    """Brute-force audit of the correction table for one message qubit.

    Every one of the 16 branches is forced deterministically by
    projection of the joint state (never sampled).  Per branch this
    verifies: the branch probability is exactly 1/16, the projected
    particle-3 state matches the table's collapsed-state column, the
    table's correction recovers the message up to phase, and the result
    is independent of the measurement order.  It also records which of
    the four corrections reach fidelity 1, exposing degeneracies (for
    |a| = |b| two corrections tie) instead of asserting uniqueness.

    ``check_table`` substitutes an alternative lookup; the auditor then
    reports its failures (used for negative controls).
    """
    table = _TABLE if check_table is None else check_table
    omega = joint_state(m)
    target = m.state()
    audits = []
    for outcomes in all_outcomes():
        prob, state = _force_branch(omega, outcomes)
        if state is None:
            raise AssertionError(f"branch {outcomes} unexpectedly has zero probability")
        got3 = _particle3_state(state, outcomes)
        corr = table[(outcomes.z1, outcomes.bell_m2, outcomes.z4)][1]
        collapsed_fid = fidelity_up_to_phase(got3, _table_collapsed(table, outcomes, m))
        recovered = corr.matrix @ got3
        corrected_fid = fidelity_up_to_phase(recovered, target)
        phase = overlap(target, recovered)
        winners = tuple(
            p
            for p in PauliCorrection
            if fidelity_up_to_phase(p.matrix @ got3, target) >= 1 - tolerance
        )
        rprob, rstate = _force_branch(omega, outcomes, reverse=True)
        order_ok = (
            rstate is not None
            and abs(rprob - prob) <= 1e-12
            and abs(
                fidelity_up_to_phase(
                    corr.matrix @ _particle3_state(rstate, outcomes), target
                )
                - corrected_fid
            )
            <= tolerance
        )
        audits.append(
            BranchAudit(
                outcomes=outcomes,
                probability=prob,
                collapsed_fidelity=collapsed_fid,
                corrected_fidelity=corrected_fid,
                recovery_phase=phase,
                fidelity_one_corrections=winners,
                order_independent=order_ok,
            )
        )
    return TableAuditReport(message=m, branches=tuple(audits), tolerance=tolerance)
