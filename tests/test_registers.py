"""Register arena: merges, forwarding handles, the register-size limit."""

import itertools

import numpy as np
import pytest

from sqpbs.registers import (
    apply_to_each,
    apply_to_qubits,
    fidelities_to,
    measure_bell_pairs,
    measure_qubit,
    measure_qubits,
    measure_qubits_bell,
    merge,
    new_qubits,
)
from sqpbs.statevec import (
    BELL_MATRIX,
    MAX_QUBITS,
    Basis,
    BellState,
    basis_state,
    bell_probabilities,
    ket_plus,
    measure,
    new_rng,
    postselect,
    tensor,
)
from stubs import LastDraw

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


# -- list forms against the one-qubit forms, row by row ------------------------

ROWS = (1, 2, 8)


def _twins(states):
    """Two independent sets of one-register handles around the same states."""
    return [new_qubits(s.copy()) for s in states], [new_qubits(s.copy()) for s in states]


def _assert_rows_equal(listed, single):
    for a, b in zip(listed, single, strict=True):
        assert a.register.state.tobytes() == b.register.state.tobytes()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("n", range(1, 7))
def test_measure_qubits_matches_measure_qubit_row_by_row(n, rows):
    states = [random_state(n, new_rng(100 * n + r)) for r in range(rows)]
    mixed = [Basis.Z, Basis.X] * rows
    for position in range(n):
        for basis in (Basis.Z, Basis.X, mixed[:rows], mixed[1 : rows + 1]):
            bases = [basis] * rows if isinstance(basis, Basis) else basis
            listed, single = _twins(states)
            rng_list, rng_single = new_rng(position), new_rng(position)
            got = measure_qubits([h[position] for h in listed], basis, rng_list)
            want = [measure_qubit(h[position], b, rng_single) for h, b in zip(single, bases)]
            assert got == want
            _assert_rows_equal([h[0] for h in listed], [h[0] for h in single])
            assert rng_list.random() == rng_single.random()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("n", range(2, 7))
def test_measure_bell_pairs_matches_measure_qubits_bell_row_by_row(n, rows):
    states = [random_state(n, new_rng(200 * n + r)) for r in range(rows)]
    for a, b in itertools.permutations(range(n), 2):
        listed, single = _twins(states)
        rng_list, rng_single = new_rng(10 * a + b), new_rng(10 * a + b)
        got = measure_bell_pairs([h[a] for h in listed], [h[b] for h in listed], rng_list)
        want = [measure_qubits_bell(h[a], h[b], rng_single) for h in single]
        assert got == want
        _assert_rows_equal([h[0] for h in listed], [h[0] for h in single])
        assert rng_list.random() == rng_single.random()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize(("n_a", "n_b"), [(1, 1), (1, 4), (2, 3), (3, 1)])
def test_measure_bell_pairs_merges_like_merge(n_a, n_b, rows):
    """Pairs across two registers: the row-wise product is ``merge``'s tensor product."""
    states_a = [random_state(n_a, new_rng(300 + r)) for r in range(rows)]
    states_b = [random_state(n_b, new_rng(400 + r)) for r in range(rows)]
    for a, b in itertools.product(range(n_a), range(n_b)):
        (listed_a, single_a), (listed_b, single_b) = _twins(states_a), _twins(states_b)
        rng_list, rng_single = new_rng(a + 7 * b), new_rng(a + 7 * b)
        got = measure_bell_pairs([h[a] for h in listed_a], [h[b] for h in listed_b], rng_list)
        want = [measure_qubits_bell(ha[a], hb[b], rng_single) for ha, hb in zip(single_a, single_b)]
        assert got == want
        _assert_rows_equal([h[0] for h in listed_a], [h[0] for h in single_a])
        for ha, hb in zip(listed_a, listed_b):
            assert [q.register for q in hb] == [ha[0].register] * n_b
            assert [q.index for q in hb] == list(range(n_a, n_a + n_b))
        assert rng_list.random() == rng_single.random()


@pytest.mark.parametrize("n", range(1, 5))
def test_last_draw_takes_the_outcome_with_weight(n):
    """A draw past a sum that rounded below 1 flips to the weighted outcome, row by row."""
    plus = [tensor(ket_plus(), basis_state(n - 1, r)) if n > 1 else ket_plus() for r in range(1 << (n - 1))]
    assert all(postselect(s, 0, Basis.X, 0)[0] < LastDraw().random() for s in plus)
    listed, single = _twins(plus)
    got = measure_qubits([h[0] for h in listed], Basis.X, LastDraw())
    assert got == [measure_qubit(h[0], Basis.X, LastDraw()) for h in single] == [0] * len(plus)
    _assert_rows_equal([h[0] for h in listed], [h[0] for h in single])
    if n > 1:
        phi = BELL_MATRIX[:, 0]
        pairs = [tensor(phi, basis_state(n - 1, r)) for r in range(1 << (n - 1))]
        assert all(bell_probabilities(s, 0, 1).sum() < LastDraw().random() for s in pairs)
        listed, single = _twins(pairs)
        got = measure_bell_pairs([h[0] for h in listed], [h[1] for h in listed], LastDraw())
        want = [measure_qubits_bell(h[0], h[1], LastDraw()) for h in single]
        assert got == want == [BellState.PHI_PLUS] * len(pairs)
        _assert_rows_equal([h[0] for h in listed], [h[0] for h in single])


@pytest.mark.parametrize("n", range(1, 5))
def test_apply_to_each_and_fidelities_to_match_the_one_qubit_forms(n):
    rng = new_rng(n)
    states = [random_state(n, rng) for _ in range(8)]
    matrices = np.stack([np.linalg.qr(random_state(2, rng).reshape(2, 2))[0] for _ in states])
    targets = np.stack([random_state(1, rng) for _ in states])
    for position in range(n):
        listed, single = _twins(states)
        apply_to_each([h[position] for h in listed], matrices)
        for h, m in zip(single, matrices):
            apply_to_qubits([h[position]], m)
        _assert_rows_equal([h[0] for h in listed], [h[0] for h in single])
        got = fidelities_to([h[position] for h in listed], targets)
        for h, t, f in zip(single, targets, got, strict=True):
            block = np.swapaxes(h[0].register.state.reshape(1 << position, 2, -1), 0, 1).reshape(2, -1)
            assert f == float(np.real(t.conj() @ (block @ block.conj().T) @ t))


def test_list_forms_reject_unlike_registers():
    rng = new_rng(0)
    one, two = new_qubits(basis_state(1, 0)), new_qubits(basis_state(2, 0))
    other = new_qubits(basis_state(2, 0))
    with pytest.raises(ValueError, match="one size"):
        measure_qubits([one[0], two[0]], Basis.Z, rng)
    with pytest.raises(ValueError, match="one index"):
        measure_qubits([two[0], other[1]], Basis.Z, rng)
    with pytest.raises(ValueError, match="one size"):
        apply_to_each([one[0], two[0]], np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError, match="one index"):
        fidelities_to([two[0], other[1]], np.stack([ket_plus()] * 2))
    with pytest.raises(ValueError, match="of its own"):
        measure_qubits([two[0], two[0]], Basis.Z, rng)
    with pytest.raises(ValueError, match="one size"):
        measure_bell_pairs([two[0], one[0]], [other[0], new_qubits(basis_state(1, 0))[0]], rng)
    mixed = new_qubits(basis_state(2, 0))
    with pytest.raises(ValueError, match="every pair"):
        measure_bell_pairs([mixed[0], two[0]], [mixed[1], new_qubits(basis_state(2, 0))[1]], rng)
