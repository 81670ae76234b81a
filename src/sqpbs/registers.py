"""Mutable register arena on top of the statevector core.

A ``Register`` owns one state array and hands out ``Qubit`` handles;
operations replace that array with the new one the core returns.
Handles stay valid across register merges: a joint operation on qubits
living in different registers first absorbs one register into the other
(tensor product) and re-points the handles.  This keeps every simulated
system in the smallest register that physics requires — decoy qubits are
born in their own 1-qubit registers and only ever grow when an attacker
entangles a probe with them.
"""

from __future__ import annotations

import numpy as np

from .statevec import (
    Basis,
    BellState,
    MAX_QUBITS,
    Rng,
    apply_unitary,
    basis_state,
    measure,
    measure_bell,
    num_qubits,
    tensor,
)


class Qubit:
    """Handle to one qubit; tracks its current register and position."""

    __slots__ = ("register", "index")

    def __init__(self, register: "Register", index: int):
        self.register = register
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Qubit(register={id(self.register):#x}, index={self.index})"


class Register:
    """A simulated quantum register; mutated in place by operations."""

    __slots__ = ("state", "qubits")

    def __init__(self, state: np.ndarray):
        self.state = state
        self.qubits = [Qubit(self, i) for i in range(num_qubits(state))]

    @property
    def num_qubits(self) -> int:
        return num_qubits(self.state)


def new_qubit(state: np.ndarray) -> Qubit:
    """A fresh single-qubit register around ``state``."""
    if state.shape != (2,):
        raise ValueError(f"expected a 1-qubit state, got shape {state.shape}")
    return Register(state).qubits[0]


def new_z_qubit(bit: int) -> Qubit:
    return new_qubit(basis_state(1, bit))


def merge(a: Register, b: Register) -> Register:
    """Absorb register ``b`` into ``a`` (no-op when identical).

    Handles into ``a`` keep their indices; handles into ``b`` are
    re-pointed at ``a`` with shifted indices.
    """
    if a is b:
        return a
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise ValueError(
            f"merge would create a {a.num_qubits + b.num_qubits}-qubit register (max {MAX_QUBITS})"
        )
    shift = a.num_qubits
    a.state = tensor(a.state, b.state)
    for q in b.qubits:
        q.register = a
        q.index += shift
        a.qubits.append(q)
    b.qubits = []
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


def qubit_fidelity_to(qubit: Qubit, target: np.ndarray) -> float:
    """<target| rho |target> for one qubit; equals |<target|psi>|^2 when pure."""
    t = qubit.register.state.reshape(1 << qubit.index, 2, -1)
    block = np.swapaxes(t, 0, 1).reshape(2, -1)
    rho = block @ block.conj().T  # the qubit's 2x2 reduced density matrix
    return float(np.real(target.conj() @ rho @ target))
