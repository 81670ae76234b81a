"""Register arena: merges, forwarding handles, the register-size limit."""

import numpy as np
import pytest

from sqpbs.registers import measure_qubit, merge, new_qubits
from sqpbs.statevec import MAX_QUBITS, Basis, basis_state, measure, new_rng, tensor

SIZES = (1, 2, 1)  # registers a, b, c


def random_state(n: int, rng) -> np.ndarray:
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return raw / np.linalg.norm(raw)


def chained():
    """Registers a, b, c; b merged into a, then a into c.

    Returns the handles in c's final qubit order (c's, a's, b's) and the
    state built directly with ``tensor``.
    """
    rng = new_rng(5)
    sa, sb, sc = (random_state(n, rng) for n in SIZES)
    qa, qb, qc = new_qubits(sa), new_qubits(sb), new_qubits(sc)
    merge(qa[0].register, qb[0].register)
    merge(qc[0].register, qa[0].register)
    return [*qc, *qa, *qb], tensor(sc, tensor(sa, sb))


def test_merge_past_the_limit_raises_and_leaves_both_registers():
    big = new_qubits(basis_state(MAX_QUBITS - 1, 0))
    small = new_qubits(basis_state(2, 0))
    with pytest.raises(ValueError, match=f"max {MAX_QUBITS}"):
        merge(big[0].register, small[0].register)
    assert big[0].register.num_qubits == MAX_QUBITS - 1
    assert small[1].register.num_qubits == 2 and small[1].index == 1


@pytest.mark.parametrize("position", range(sum(SIZES)))
@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_chained_merges_measure_like_the_direct_tensor(position, basis):
    handles, direct = chained()
    # The handle's first use is this measurement, so it follows the forwards itself.
    outcome = measure_qubit(handles[position], basis, new_rng(position))
    want_outcome, want_state = measure(direct, position, basis, new_rng(position))
    assert outcome == want_outcome
    assert np.array_equal(handles[position].register.state, want_state)


def test_chained_merges_read_the_direct_tensor():
    handles, direct = chained()
    live = handles[0].register
    assert np.array_equal(live.state, direct)
    for position, qubit in enumerate(handles):
        assert qubit.register is live
        assert qubit.index == position


def test_handle_reads_the_live_register_after_absorption():
    a = new_qubits(basis_state(2, 0))
    b = new_qubits(basis_state(1, 1))
    absorbed = b[0].register
    live = merge(a[0].register, absorbed)
    assert absorbed.absorber is live and absorbed.shift == 2
    assert b[0].register is live and b[0].index == 2
    assert live.absorber is None
    assert [q.index for q in a] == [0, 1]
