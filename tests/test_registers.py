"""Row stacks: merges, the register-size limit, the row kernels against
the one-state forms, row by row, and operations that leave their inputs alone."""

import itertools

import numpy as np
import pytest

from sqpbs.adversary import INTERCEPT_BASES, EntangleMeasure, EveParams, InterceptResend
from sqpbs.channels import check_decoys, send_with_decoys
from sqpbs.protocol import Party
from sqpbs.registers import measure_qubit, measure_qubits_bell, merge, new_qubit
from sqpbs.statevec import (
    BELL_MATRIX,
    MAX_QUBITS,
    Basis,
    BellState,
    apply_1q_rows,
    apply_unitary,
    basis_state,
    ket_plus,
    measure,
    measure_bell,
    measure_rows,
    new_rng,
    num_qubits,
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
    c = merge(sc, merge(sa, sb))
    return c, [tensor(z, tensor(x, y)) for x, y, z in zip(sa, sb, sc)]


def test_merge_past_the_limit_raises_and_leaves_both_stacks():
    big = basis_state(MAX_QUBITS - 1, 0)[None]
    small = basis_state(2, 0)[None]
    with pytest.raises(ValueError, match=f"max {MAX_QUBITS}"):
        merge(big, small)
    assert num_qubits(big[0]) == MAX_QUBITS - 1
    assert num_qubits(small[0]) == 2


@pytest.mark.parametrize("rows", ROWS)
def test_chained_merges_read_the_direct_tensor(rows):
    c, direct = chained(rows)
    assert len(c) == rows
    for got, want in zip(c, direct, strict=True):
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
        assert c[row].tobytes() == want_state.tobytes()


def test_merge_joins_a_one_row_stack_to_every_row():
    rows = random_stack(2, 4, 9)
    probe = basis_state(1, 0)
    for got, row in zip(merge(rows, new_qubit(probe)), rows, strict=True):
        assert got.tobytes() == tensor(row, probe).tobytes()


@pytest.mark.parametrize(
    ("a", "b", "match"),
    [
        (random_stack(1, 3, 0), random_stack(1, 2, 1), "rows"),
        (random_stack(1, 1, 0), random_stack(1, 2, 1), "rows"),
        (ket_plus(), random_stack(1, 1, 1), r"a \(rows, 2\*\*k\) array, got shape \(2,\)"),
        (random_stack(1, 2, 0), ket_plus(), r"a \(rows, 2\*\*k\) array, got shape \(2,\)"),
    ],
    ids=["two-rows-into-three", "two-rows-into-one", "1-D-first", "1-D-second"],
)
def test_stacks_reject_unlike_rows(a, b, match):
    with pytest.raises(ValueError, match=match):
        merge(a, b)
    with pytest.raises(ValueError, match="1-qubit"):
        new_qubit(basis_state(2, 0))


ATTACKERS = [*(InterceptResend(basis) for basis in INTERCEPT_BASES), EntangleMeasure(EveParams.probe_marking(0.8))]


def frozen(stack: np.ndarray) -> np.ndarray:
    """A read-only copy of ``stack``: a write into it raises."""
    stack = stack.copy()
    stack.setflags(write=False)
    return stack


@pytest.mark.parametrize("attacker", ATTACKERS, ids=[*(f"intercept-{b}" for b in INTERCEPT_BASES), "entangle"])
def test_no_operation_writes_into_a_stack_it_is_given(attacker):
    """Every operation on read-only stacks returns new ones: nothing raises and every input keeps its bytes."""
    rng = new_rng(3)
    given = [frozen(random_stack(2, 3, 1)), frozen(random_stack(2, 1, 2)), frozen(random_stack(1, 3, 4))]
    before = [stack.tobytes() for stack in given]
    seq = send_with_decoys(given[:2], 6, rng, attacker, column=1)
    check_decoys(seq, rng, threshold=1.0)
    david = Party("david", quantum=True)
    arrived = [frozen(stack) for stack in seq.payload]
    joint = frozen(merge(given[2], arrived[0]))
    outputs = [
        *seq.payload, seq.tapped, merge(arrived[0], arrived[1]), joint,
        *david.measure(joint, 1, Basis.X, rng), *david.measure_bell(joint, 0, 2, rng),
        david.apply_gates(joint, 1, np.stack([np.eye(2, dtype=complex)] * len(joint))),
    ]
    assert [stack.tobytes() for stack in given] == before
    assert not any(np.shares_memory(out, stack) for out in outputs for stack in given if out is not stack)


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
        stack = merge(states_a, states_b) if n_b else states_a
        rng_rows, rng_single = new_rng(10 * a + b), new_rng(10 * a + b)
        got, rest = measure_qubits_bell(stack, a, b, rng_rows)
        for outcome, row, state in zip(got, rest, joint, strict=True):
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
    stack = plus.copy()
    assert [measure_qubit(stack, r, 0, Basis.X, LastDraw()) for r in range(len(plus))] == got.tolist()
    assert got.tolist() == [0] * len(plus)
    assert stack.tobytes() == prepare_rows(collapsed, 0, Basis.X, got).tobytes()
    if n > 1:
        phi = BELL_MATRIX[:, 0]
        pairs = np.array([tensor(phi, basis_state(n - 1, r)) for r in range(1 << (n - 1))])
        probs = postselect_bell_rows(np.repeat(pairs, 4, axis=0), 0, 1, np.tile(np.arange(4), len(pairs)))[0]
        assert all(probs.reshape(-1, 4).sum(axis=1) < LastDraw().random())
        got, rest = measure_qubits_bell(pairs, 0, 1, LastDraw())
        want = [measure_bell(s, 0, 1, LastDraw()) for s in pairs]
        assert got.tolist() == [b.index for b, _ in want] == [BellState.PHI_PLUS.index] * len(pairs)
        for row, (_, state) in zip(rest, want, strict=True):
            assert row.tobytes() == state.tobytes()


@pytest.mark.parametrize("n", range(1, 5))
def test_apply_1q_rows_matches_the_one_state_form(n):
    rng = new_rng(n)
    states = np.array([random_state(n, rng) for _ in range(8)])
    matrices = np.stack([np.linalg.qr(random_state(2, rng).reshape(2, 2))[0] for _ in states])
    for position in range(n):
        applied = apply_1q_rows(states, position, matrices)
        for got, state, m in zip(applied, states, matrices, strict=True):
            assert got.tobytes() == apply_unitary(state, [position], m).tobytes()
