"""Row stacks: the one layout of every simulated system.

A :class:`Stack` holds one ``(rows, 2**k)`` state array: the same
k-qubit system in each row, such as the carriers of the n protocol
instances or the tapped decoys of one channel.  It names no qubits; its
owner knows which column holds what.  Operations replace the stack's
array, or one row of it, with what the ``statevec`` row kernels return,
so everyone holding the stack sees the new state.

``merge`` is the row-wise tensor product.  Its second stack's qubits
join as the least significant ones, so no column of the first moves:
the protocol's Bell step joins Alice's blinded qubits with the carriers
this way, and an entangle-measure attacker widens a stack by its probe.
"""

from __future__ import annotations

import numpy as np

from .statevec import (
    MAX_QUBITS,
    Basis,
    Rng,
    measure,
    measure_bell_rows,
    num_qubits,
    prepare_rows,
)


class Stack:
    """One k-qubit state per row; mutated in place by operations."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        if state.ndim != 2:
            raise ValueError(f"expected a (rows, 2**k) array, got shape {state.shape}")
        self.state = state

    @property
    def rows(self) -> int:
        return self.state.shape[0]

    @property
    def num_qubits(self) -> int:
        return num_qubits(self.state[0])


def new_qubit(state: np.ndarray) -> Stack:
    """A fresh one-row stack holding a copy of the one-qubit ``state``."""
    if state.shape != (2,):
        raise ValueError(f"expected a 1-qubit state, got shape {state.shape}")
    return Stack(np.array([state], dtype=complex))


def merge(a: Stack, b: Stack) -> Stack:
    """Replace ``a``'s rows by the row-wise tensor product with ``b``'s, and return ``a``.

    Row ``r`` becomes ``a``'s row ``r`` (x) ``b``'s row ``r``; a one-row
    ``b`` joins every row.  ``b``'s qubits follow ``a``'s.
    """
    if b.rows not in (1, a.rows):
        raise ValueError(f"cannot merge a stack of {b.rows} rows into one of {a.rows}")
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits (max {MAX_QUBITS})")
    a.state = (a.state[:, :, None] * b.state[:, None, :]).reshape(a.rows, -1)
    return a


def measure_qubit(stack: Stack, row: int, column: int, basis: Basis, rng: Rng) -> int:
    """Measure the qubit at ``column`` of one row of ``stack``; the row collapses in place, the qubit kept."""
    outcome, rest = measure(stack.state[row], column, basis, rng)
    stack.state[row] = prepare_rows(rest[None], column, basis, np.array([outcome]))[0]
    return outcome


def measure_qubits_bell(stack: Stack, qubit_a: int, qubit_b: int, rng: Rng) -> np.ndarray:
    """Bell-measure the pair (a, b) of every row, with one ``rng.random(rows)``, and drop it: each row's Bell index."""
    indices, stack.state = measure_bell_rows(stack.state, qubit_a, qubit_b, rng.random(stack.rows))
    return indices
