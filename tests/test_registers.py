"""Row stacks: merges, the register-size limit, and the row kernels
against the one-state forms, row by row."""

import itertools

import numpy as np
import pytest

from sqpbs.registers import Stack, measure_qubit, measure_qubits_bell, merge, new_qubit
from sqpbs.statevec import (
    BELL_MATRIX,
    MAX_QUBITS,
    Basis,
    BellState,
    apply_1q_rows,
    apply_unitary,
    basis_state,
    fidelity_1q_rows,
    ket_plus,
    measure,
    measure_bell,
    measure_rows,
    new_rng,
    postselect,
    postselect_bell_rows,
    prepare_rows,
    tensor,
)
from stubs import LastDraw

SIZES = (1, 2, 1)  # stacks a, b, c
ROWS = (1, 2, 8)


def random_state(n: int, rng) -> np.ndarray:
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return raw / np.linalg.norm(raw)


def random_stack(n: int, rows: int, seed: int) -> np.ndarray:
    rng = new_rng(seed)
    return np.array([random_state(n, rng) for _ in range(rows)])


def chained(rows: int):
    """Stacks a, b, c; b merged into a, then a into c.

    Returns c and, per row, the state built directly with ``tensor``.
    """
    sa, sb, sc = (random_stack(n, rows, 5 + i) for i, n in enumerate(SIZES))
    a, b, c = Stack(sa.copy()), Stack(sb.copy()), Stack(sc.copy())
    merge(a, b)
    assert merge(c, a) is c
    return c, [tensor(z, tensor(x, y)) for x, y, z in zip(sa, sb, sc)]


def test_merge_past_the_limit_raises_and_leaves_both_stacks():
    big = Stack(basis_state(MAX_QUBITS - 1, 0)[None])
    small = Stack(basis_state(2, 0)[None])
    with pytest.raises(ValueError, match=f"max {MAX_QUBITS}"):
        merge(big, small)
    assert big.num_qubits == MAX_QUBITS - 1
    assert small.num_qubits == 2


@pytest.mark.parametrize("rows", ROWS)
def test_chained_merges_read_the_direct_tensor(rows):
    c, direct = chained(rows)
    assert c.rows == rows
    for got, want in zip(c.state, direct, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("position", range(sum(SIZES)))
@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_chained_merges_measure_like_the_direct_tensor(position, basis):
    c, direct = chained(3)
    for row, state in enumerate(direct):
        outcome = measure_qubit(c, row, position, basis, new_rng(position + row))
        want_outcome, rest = measure(state, position, basis, new_rng(position + row))
        assert outcome == want_outcome
        want_state = prepare_rows(rest[None], position, basis, np.array([want_outcome]))[0]
        assert c.state[row].tobytes() == want_state.tobytes()


def test_merge_joins_a_one_row_stack_to_every_row():
    stack = Stack(random_stack(2, 4, 9))
    rows = stack.state.copy()
    probe = basis_state(1, 0)
    merge(stack, new_qubit(probe))
    for got, row in zip(stack.state, rows, strict=True):
        assert got.tobytes() == tensor(row, probe).tobytes()


def test_stacks_reject_unlike_rows():
    with pytest.raises(ValueError, match="rows"):
        merge(Stack(random_stack(1, 3, 0)), Stack(random_stack(1, 2, 1)))
    with pytest.raises(ValueError, match="rows"):
        merge(Stack(random_stack(1, 1, 0)), Stack(random_stack(1, 2, 1)))
    with pytest.raises(ValueError, match="2"):
        Stack(ket_plus())
    with pytest.raises(ValueError, match="1-qubit"):
        new_qubit(basis_state(2, 0))


# -- row kernels against the one-state forms, row by row ----------------------


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("n", range(1, 7))
def test_measure_rows_matches_measure_row_by_row(n, rows):
    states = random_stack(n, rows, 100 * n + rows)
    for position, basis in itertools.product(range(n), Basis):
        rng_rows, rng_single = new_rng(position), new_rng(position)
        got, collapsed = measure_rows(states, position, basis, rng_rows.random(rows))
        for outcome, row, state in zip(got.tolist(), collapsed, states, strict=True):
            want, want_state = measure(state, position, basis, rng_single)
            assert outcome == want
            assert row.tobytes() == want_state.tobytes()
        assert rng_rows.random() == rng_single.random()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize(("n_a", "n_b"), [(2, 0), (3, 0), (6, 0), (1, 1), (1, 4), (2, 3), (3, 1)])
def test_bell_step_matches_measure_bell_row_by_row(n_a, n_b, rows):
    """Pairs in one stack, or across two joined by ``merge``."""
    states_a = random_stack(n_a, rows, 200 * n_a + rows)
    states_b = random_stack(n_b, rows, 300 * n_b + rows) if n_b else None
    joint = [tensor(x, y) for x, y in zip(states_a, states_b)] if n_b else list(states_a)
    for a, b in itertools.permutations(range(n_a + n_b), 2):
        stack = Stack(states_a.copy())
        if n_b:
            merge(stack, Stack(states_b.copy()))
        rng_rows, rng_single = new_rng(10 * a + b), new_rng(10 * a + b)
        got = measure_qubits_bell(stack, a, b, rng_rows)
        for outcome, row, state in zip(got, stack.state, joint, strict=True):
            want, want_state = measure_bell(state, a, b, rng_single)
            assert outcome == want.index
            assert row.tobytes() == want_state.tobytes()
        assert rng_rows.random() == rng_single.random()


@pytest.mark.parametrize("n", range(1, 5))
def test_last_draw_takes_the_outcome_with_weight(n):
    """A draw past a sum that rounded below 1 flips to the weighted outcome, row by row."""
    plus = np.array([tensor(ket_plus(), basis_state(n - 1, r)) if n > 1 else ket_plus() for r in range(1 << (n - 1))])
    assert all(postselect(s, 0, Basis.X, 0)[0] < LastDraw().random() for s in plus)
    got, collapsed = measure_rows(plus, 0, Basis.X, LastDraw().random(len(plus)))
    stack = Stack(plus.copy())
    assert [measure_qubit(stack, r, 0, Basis.X, LastDraw()) for r in range(len(plus))] == got.tolist()
    assert got.tolist() == [0] * len(plus)
    assert stack.state.tobytes() == prepare_rows(collapsed, 0, Basis.X, got).tobytes()
    if n > 1:
        phi = BELL_MATRIX[:, 0]
        pairs = np.array([tensor(phi, basis_state(n - 1, r)) for r in range(1 << (n - 1))])
        probs = postselect_bell_rows(np.repeat(pairs, 4, axis=0), 0, 1, np.tile(np.arange(4), len(pairs)))[0]
        assert all(probs.reshape(-1, 4).sum(axis=1) < LastDraw().random())
        stack = Stack(pairs.copy())
        got = measure_qubits_bell(stack, 0, 1, LastDraw())
        want = [measure_bell(s, 0, 1, LastDraw()) for s in pairs]
        assert got == [b.index for b, _ in want] == [BellState.PHI_PLUS.index] * len(pairs)
        for row, (_, state) in zip(stack.state, want, strict=True):
            assert row.tobytes() == state.tobytes()


@pytest.mark.parametrize("n", range(1, 5))
def test_apply_1q_rows_and_fidelity_1q_rows_match_the_one_state_forms(n):
    rng = new_rng(n)
    states = np.array([random_state(n, rng) for _ in range(8)])
    matrices = np.stack([np.linalg.qr(random_state(2, rng).reshape(2, 2))[0] for _ in states])
    targets = np.stack([random_state(1, rng) for _ in states])
    for position in range(n):
        applied = apply_1q_rows(states, position, matrices)
        for got, state, m in zip(applied, states, matrices, strict=True):
            assert got.tobytes() == apply_unitary(state, [position], m).tobytes()
        got = fidelity_1q_rows(applied, position, targets)
        for row, t, f in zip(applied, targets, got, strict=True):
            block = np.swapaxes(row.reshape(1 << position, 2, -1), 0, 1).reshape(2, -1)
            assert f == float(np.real(t.conj() @ (block @ block.conj().T) @ t))
