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

import numpy as np

from .statevec import (
    Basis,
    BellState,
    Rng,
    apply_unitary,
    basis_state,
    measure,
    measure_bell,
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


def qubit_fidelity_to(qubit: Qubit, target: np.ndarray) -> float:
    """<target| rho |target> for one qubit; equals |<target|psi>|^2 when pure."""
    t = qubit.register.state.reshape(1 << qubit.index, 2, -1)
    block = np.swapaxes(t, 0, 1).reshape(2, -1)
    rho = block @ block.conj().T  # the qubit's 2x2 reduced density matrix
    return float(np.real(target.conj() @ rho @ target))
