"""Row stacks: the one layout of every simulated system.

A stack is a plain complex ``(rows, 2**k)`` array: the same k-qubit
system in each row, such as the carriers of the n protocol instances or
the tapped decoys of one channel.  It names no qubits; its owner knows
which column holds what.  Operations return the stacks they produce and
never write into one they are given, except ``measure_qubit``, the
one-row reference, which collapses its row in place.

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


def new_qubit(state: np.ndarray) -> np.ndarray:
    """A fresh one-row stack holding a copy of the one-qubit ``state``."""
    if state.shape != (2,):
        raise ValueError(f"expected a 1-qubit state, got shape {state.shape}")
    return np.array([state], dtype=complex)


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The row-wise tensor product of stacks ``a`` and ``b``, a new stack.

    Row ``r`` is ``a``'s row ``r`` (x) ``b``'s row ``r``; a one-row ``b``
    joins every row.  ``b``'s qubits follow ``a``'s.
    """
    for stack in (a, b):
        if stack.ndim != 2:
            raise ValueError(f"expected a (rows, 2**k) array, got shape {stack.shape}")
    if len(b) not in (1, len(a)):
        raise ValueError(f"cannot merge a stack of {len(b)} rows into one of {len(a)}")
    n = num_qubits(a[0]) + num_qubits(b[0])
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits (max {MAX_QUBITS})")
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def measure_qubit(stack: np.ndarray, row: int, column: int, basis: Basis, rng: Rng) -> int:
    """Measure the qubit at ``column`` of one row of ``stack``; the row collapses in place, the qubit kept."""
    outcome, rest = measure(stack[row], column, basis, rng)
    stack[row] = prepare_rows(rest[None], column, basis, np.array([outcome]))[0]
    return outcome


def measure_qubits_bell(stack: np.ndarray, qubit_a: int, qubit_b: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Bell-measure the pair (a, b) of every row, with one ``rng.random(rows)``: each row's Bell index, and the rest."""
    return measure_bell_rows(stack, qubit_a, qubit_b, rng.random(len(stack)))
