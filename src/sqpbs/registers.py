"""Mutable register arena on top of the statevector core.

A ``Register`` owns one state array; ``Qubit`` handles name a register
and a position in it.  Membership is stored one way only: handles point
at registers, never the reverse, so a finished register is freed by
reference counting as soon as its last handle goes.  Operations replace
a register's array with the new one the core returns.

A joint operation on qubits living in different registers first absorbs
one register into the other (tensor product).  The absorbed register is
left as a forward to its absorber, recording how far its qubits moved;
each handle follows the forward the first time it is used afterwards.
This keeps every simulated system in the smallest register that physics
requires; decoys and key qubits get one only when an attacker acts on
them (``channels.transmit``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .statevec import (
    MAX_QUBITS,
    Basis,
    BellState,
    Rng,
    apply_1q_rows,
    apply_unitary,
    basis_state,
    fidelity_1q_rows,
    measure,
    measure_bell,
    measure_bell_rows,
    measure_rows,
    num_qubits,
    tensor,
)


class Qubit:
    """Handle to one qubit: its register and its position there."""

    __slots__ = ("_register", "_index")

    def __init__(self, register: "Register", index: int):
        self._register = register
        self._index = index

    def _follow(self) -> None:
        """Move past the forwards that merges left, to the live register."""
        reg = self._register
        while reg.absorber is not None:
            self._index += reg.shift
            reg = reg.absorber
        self._register = reg

    @property
    def register(self) -> "Register":
        self._follow()
        return self._register

    @property
    def index(self) -> int:
        self._follow()
        return self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Qubit(register={id(self.register):#x}, index={self.index})"


class Register:
    """A simulated quantum register; mutated in place by operations.

    After a merge absorbs it, ``absorber`` names the register that holds
    its qubits now and ``shift`` how far their positions moved.
    """

    __slots__ = ("state", "absorber", "shift")

    def __init__(self, state: np.ndarray):
        self.state = state
        self.absorber = None
        self.shift = 0

    @property
    def num_qubits(self) -> int:
        return num_qubits(self.state)


def new_qubit(state: np.ndarray) -> Qubit:
    """A fresh single-qubit register around ``state``."""
    if state.shape != (2,):
        raise ValueError(f"expected a 1-qubit state, got shape {state.shape}")
    return Qubit(Register(state), 0)


def new_qubits(state: np.ndarray) -> list[Qubit]:
    """Handles to every qubit of a fresh register around ``state``."""
    reg = Register(state)
    return [Qubit(reg, i) for i in range(num_qubits(state))]


def new_z_qubit(bit: int) -> Qubit:
    return new_qubit(basis_state(1, bit))


def merge(a: Register, b: Register) -> Register:
    """Absorb live register ``b`` into live ``a`` (no-op when identical).

    Handles into ``a`` keep their indices; handles into ``b`` reach ``a``
    through ``b``'s forward, their indices shifted by ``a``'s size.
    """
    if a is b:
        return a
    shift = a.num_qubits
    a.state = tensor(a.state, b.state)
    b.state, b.absorber, b.shift = None, a, shift
    return a


def measure_qubit(qubit: Qubit, basis: Basis, rng: Rng) -> int:
    reg = qubit.register
    outcome, reg.state = measure(reg.state, qubit.index, basis, rng)
    return outcome


def measure_qubits_bell(qubit_a: Qubit, qubit_b: Qubit, rng: Rng) -> BellState:
    reg = merge(qubit_a.register, qubit_b.register)
    outcome, reg.state = measure_bell(reg.state, qubit_a.index, qubit_b.index, rng)
    return outcome


def apply_to_qubits(qubits: list[Qubit], matrix: np.ndarray) -> None:
    """Apply a trusted unitary to ``qubits``, merging their registers first."""
    reg = qubits[0].register
    for q in qubits[1:]:
        reg = merge(reg, q.register)
    reg.state = apply_unitary(reg.state, [q.index for q in qubits], matrix, validate=False)


# -- list forms: one qubit in each of many like registers ------------------------
#
# Each list form reads the live register of every handle, stacks their
# states as the rows of one array, runs the stacked ``statevec`` kernel
# and writes each row back.  The registers must be distinct and of one
# size, and every handle must sit at the same index in its register.


def _live(qubits: Sequence[Qubit]) -> tuple[list[Register], int]:
    """The distinct live registers of ``qubits`` and their common qubit index."""
    regs = [q.register for q in qubits]
    index = qubits[0].index
    size = regs[0].state.size
    if any(q.index != index for q in qubits) or any(r.state.size != size for r in regs):
        raise ValueError("list forms need registers of one size, with the qubit at one index in each")
    if len({id(r) for r in regs}) != len(regs):
        raise ValueError("list forms need each qubit in a register of its own")
    return regs, index


def _write_back(regs: list[Register], stack: np.ndarray) -> None:
    for reg, row in zip(regs, stack):
        reg.state = row


def measure_qubits(qubits: Sequence[Qubit], basis: Basis | Sequence[Basis], rng: Rng) -> list[int]:
    """``measure_qubit`` of each qubit in turn, in one basis or one basis per qubit.

    Draws the uniforms of all the measurements with one ``rng.random``.
    """
    regs, index = _live(qubits)
    stack = np.stack([r.state for r in regs])
    u = rng.random(len(regs))
    if isinstance(basis, Basis):
        outcomes, stack = measure_rows(stack, index, basis, u)
    else:
        outcomes = np.empty(len(regs), dtype=np.intp)
        for b in Basis:
            rows = [i for i, x in enumerate(basis) if x is b]
            if rows:
                outcomes[rows], stack[rows] = measure_rows(stack[rows], index, b, u[rows])
    _write_back(regs, stack)
    return outcomes.tolist()


def measure_bell_pairs(qubits_a: Sequence[Qubit], qubits_b: Sequence[Qubit], rng: Rng) -> list[BellState]:
    """``measure_qubits_bell`` of each pair ``(qubits_a[i], qubits_b[i])`` in turn.

    Pairs in two registers are merged first, as ``merge`` does: row by
    row the tensor product, ``a``'s register absorbing ``b``'s.
    """
    regs_a, index_a = _live(qubits_a)
    regs_b, index_b = _live(qubits_b)
    stack = np.stack([r.state for r in regs_a])
    same = [a is b for a, b in zip(regs_a, regs_b)]
    shift = 0
    if not any(same):
        b = np.stack([r.state for r in regs_b])
        shift = num_qubits(stack[0])
        if shift + num_qubits(b[0]) > MAX_QUBITS:
            raise ValueError(f"tensor product would need {shift + num_qubits(b[0])} qubits (max {MAX_QUBITS})")
        stack = (stack[:, :, None] * b[:, None, :]).reshape(len(regs_a), -1)
    elif not all(same):
        raise ValueError("list forms need every pair in one register, or every pair in two")
    indices, stack = measure_bell_rows(stack, index_a, index_b + shift, rng.random(len(regs_a)))
    _write_back(regs_a, stack)
    if shift:
        for ra, rb in zip(regs_a, regs_b):
            rb.state, rb.absorber, rb.shift = None, ra, shift
    return [BellState.from_index(i) for i in indices.tolist()]


def apply_to_each(qubits: Sequence[Qubit], matrices: np.ndarray) -> None:
    """Apply the trusted one-qubit unitary ``matrices[i]`` to ``qubits[i]``."""
    regs, index = _live(qubits)
    _write_back(regs, apply_1q_rows(np.stack([r.state for r in regs]), index, matrices))


def fidelities_to(qubits: Sequence[Qubit], targets: np.ndarray) -> list[float]:
    """<targets[i]| rho_i |targets[i]> for each qubit; equals |<target|psi>|^2 when pure."""
    regs, index = _live(qubits)
    return fidelity_1q_rows(np.stack([r.state for r in regs]), index, targets).tolist()
