"""Property-based tests: invariants checked on generated inputs, not fixed seeds."""

import contextlib
import io
import json
import math
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqpbs import statevec
from sqpbs.adversary import INTERCEPT_BASES, EntangleMeasure, EveParams
from sqpbs.analysis import DETECTION_SCOPES, FORGERY_MODELS, MAX_TRIALS
from sqpbs.bits import Bits
from sqpbs.channels import DecoyState, read_prepared, tap
from sqpbs.cli import ATTACK_FLAGS, EXPERIMENT_FLAGS, main
from sqpbs.keys import otp_decrypt, otp_encrypt
from sqpbs.protocol import run_full
from sqpbs.registers import measure_qubit, new_qubit
from sqpbs.statevec import (
    BELL_MATRIX,
    ZERO_PROB,
    Basis,
    BellState,
    apply_rows,
    apply_unitary,
    basis_state,
    born_rows,
    measure,
    measure_bell_rows,
    measure_rows,
    new_rng,
    num_qubits,
    postselect,
    postselect_bell,
    postselect_bell_rows,
    postselect_rows,
    prepare_rows,
    tensor,
)
from sqpbs.transcript import ATTACK_KINDS, KEY_MODES, QUANTUM_CHANNELS, WITHHOLDABLE, RunConfig
from stubs import LastDraw, PassThrough, RecordingRng
from test_golden import FOUR_DIM_EVE

DECOYS = list(DecoyState)  # indexed by preparation code

FAST = settings(max_examples=60, deadline=None, derandomize=True)
SLOW = settings(max_examples=15, deadline=None, derandomize=True)

bit_lists = st.lists(st.integers(0, 1), max_size=80)


@st.composite
def states(draw, max_qubits=5):
    """A normalized random state array of 1..max_qubits qubits."""
    n = draw(st.integers(1, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return raw / np.linalg.norm(raw)


def norm_squared(state: np.ndarray) -> float:
    return float(np.sum(np.abs(state) ** 2))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@FAST
@given(states(), st.data())
def test_apply_unitary_keeps_norm_and_input(state, data):
    n = num_qubits(state)
    targets = data.draw(st.permutations(range(n)).map(lambda p: p[: min(n, 3)]))
    k = data.draw(st.integers(1, len(targets)))
    u = random_unitary(1 << k, data.draw(st.integers(0, 2**32 - 1)))
    before = state.copy()
    out = apply_unitary(state, targets[:k], u)
    assert abs(norm_squared(out) - 1.0) <= 1e-12
    np.testing.assert_array_equal(state, before)


@FAST
@given(states(), st.data(), st.sampled_from(Basis), st.integers(0, 2**32 - 1))
def test_measure_returns_unit_norm_and_keeps_input(state, data, basis, seed):
    qubit = data.draw(st.integers(0, num_qubits(state) - 1))
    before = state.copy()
    bit, post = measure(state, qubit, basis, new_rng(seed))
    assert bit in (0, 1)
    assert abs(norm_squared(post) - 1.0) <= 1e-12
    np.testing.assert_array_equal(state, before)


@FAST
@given(states(), st.data(), st.sampled_from(Basis), st.integers(0, 1))
def test_postselect_returns_unit_norm_and_keeps_input(state, data, basis, outcome):
    qubit = data.draw(st.integers(0, num_qubits(state) - 1))
    before = state.copy()
    prob, post = postselect(state, qubit, basis, outcome)
    assert 0.0 <= prob <= 1.0 + 1e-12
    if post is not None:
        assert abs(norm_squared(post) - 1.0) <= 1e-12
    np.testing.assert_array_equal(state, before)


@st.composite
def stacks(draw, min_qubits=1, max_qubits=5):
    """A (rows, 2**n) stack mixing random states with basis states, whose other outcomes have no weight."""
    n = draw(st.integers(min_qubits, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            rows.append(basis_state(n, draw(st.integers(0, (1 << n) - 1))))
        else:
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            rows.append(raw / np.linalg.norm(raw))
    return np.array(rows)


def assert_row_is_the_one_row_result(prob, row, one):
    """Row ``r`` of a row kernel equals the one-row wrapper's ``(prob, state or None)``."""
    assert prob == one[0]
    if one[1] is None:
        assert prob < ZERO_PROB and not row.any()
    else:
        assert row.tobytes() == one[1].tobytes()


@FAST
@given(stacks(), st.data(), st.sampled_from(Basis))
def test_postselect_rows_is_postselect_row_by_row(stack, data, basis):
    qubit = data.draw(st.integers(0, num_qubits(stack[0]) - 1))
    outcomes = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(stack), max_size=len(stack))))
    before = stack.copy()
    with np.errstate(all="raise"):
        prob, out = postselect_rows(stack, qubit, basis, outcomes)
    for r, state in enumerate(stack):
        assert_row_is_the_one_row_result(prob[r], out[r], postselect(state, qubit, basis, int(outcomes[r])))
    np.testing.assert_array_equal(stack, before)


@FAST
@given(stacks(), st.data(), st.sampled_from(Basis))
def test_born_rows_are_the_postselect_rows_probabilities(stack, data, basis):
    qubit = data.draw(st.integers(0, num_qubits(stack[0]) - 1))
    before = stack.copy()
    with np.errstate(all="raise"):
        probs = born_rows(stack, qubit, basis)
    for outcome, prob in enumerate(probs):
        forced = postselect_rows(stack, qubit, basis, np.full(len(stack), outcome))[0]
        assert prob.tobytes() == forced.tobytes()
        assert [prob[r] for r in range(len(stack))] == [postselect(s, qubit, basis, outcome)[0] for s in stack]
    np.testing.assert_array_equal(stack, before)


@FAST
@given(stacks(max_qubits=6), st.data(), st.sampled_from(Basis))
def test_born_rows_sum_each_component_in_index_order(stack, data, basis):
    """Each weight is the one contiguous sum of the component's squared magnitudes, in basis-index order,
    byte for byte, whichever qubit is read."""
    qubit = data.draw(st.integers(0, num_qubits(stack[0]) - 1))
    t = stack.reshape(len(stack), 1 << qubit, 2, -1)
    a0, a1 = t[:, :, 0, :], t[:, :, 1, :]
    components = (a0, a1) if basis is Basis.Z else ((a0 + a1) * statevec.SQRT1_2, (a0 - a1) * statevec.SQRT1_2)
    for prob, c in zip(born_rows(stack, qubit, basis), components, strict=True):
        sq = np.ascontiguousarray(c.real**2 + c.imag**2).reshape(len(stack), -1)
        assert prob.tobytes() == sq.sum(axis=1).tobytes()


@st.composite
def ordered_targets(draw, max_qubits=6):
    """``(n, targets)``: 2 to n distinct qubits of an n-qubit state, in any order."""
    n = draw(st.integers(2, max_qubits))
    return n, draw(st.permutations(range(n)))[: draw(st.integers(2, n))]


def targets_first(n: int, targets: list[int]) -> np.ndarray:
    """``perm[i]``: basis index i with its bits reordered so that ``targets`` come first, in order,
    then the other qubits in theirs; ``moved[perm] = row`` moves a row into that basis."""
    order = [*targets, *(q for q in range(n) if q not in targets)]
    return np.array([sum(((i >> (n - 1 - q)) & 1) << (n - 1 - p) for p, q in enumerate(order)) for i in range(1 << n)])


def kron_reference(row: np.ndarray, n: int, targets: list[int], matrix: np.ndarray) -> np.ndarray:
    """``matrix`` on ``targets`` of ``row`` as an ``np.kron`` in a basis where the targets come first."""
    perm = targets_first(n, targets)
    moved = np.empty_like(row)
    moved[perm] = row
    return (np.kron(matrix, np.eye(1 << (n - len(targets)))) @ moved)[perm]


def projection_reference(row: np.ndarray, n: int, targets: list[int], ket: np.ndarray) -> tuple[float, np.ndarray]:
    """``<ket|_targets row`` as an ``np.kron`` in a basis where the targets come first: its weight p,
    and the other qubits' state divided by sqrt(p), or all zeros for p = 0."""
    moved = np.empty_like(row)
    moved[targets_first(n, targets)] = row
    rest = np.kron(ket.conj()[None], np.eye(1 << (n - len(targets)))) @ moved
    p = float(np.sum(np.abs(rest) ** 2))
    return p, rest / math.sqrt(p) if p > 0 else np.zeros_like(rest)


ONE_QUBIT_KETS = {Basis.Z: np.eye(2, dtype=complex), Basis.X: np.array([[1, 1], [1, -1]]) * statevec.SQRT1_2}


def assert_remainders_match_the_projection(prob, out, stack, targets, kets):
    """Row ``r`` of a kernel's ``(prob, remaining stack)`` is the projection of row ``r`` onto
    ``kets[r]`` within 1e-12; a row without weight reads probability 0 and all zeros."""
    n = num_qubits(stack[0])
    assert out.shape == (len(stack), 1 << (n - len(targets)))
    for r, row in enumerate(stack):
        p, rest = projection_reference(row, n, targets, kets[r])
        assert abs(prob[r] - p) <= 1e-12
        if p == 0:
            assert prob[r] == 0.0 and not out[r].any()
        else:
            np.testing.assert_allclose(out[r], rest, rtol=0, atol=1e-12)


@FAST
@given(stacks(max_qubits=6), st.data(), st.sampled_from(Basis), st.integers(0, 2**32 - 1))
def test_kernels_leave_the_projection_onto_the_outcome(stack, data, basis, seed):
    """Every measurement kernel returns the stack without the qubits it measured: row ``r``'s
    component for its outcome, renormalized, as an ``np.kron`` projection gives it."""
    n = num_qubits(stack[0])
    rows = len(stack)
    qubit = data.draw(st.integers(0, n - 1))
    outcomes = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    with np.errstate(all="raise"):
        kernels = [(outcomes, postselect_rows(stack, qubit, basis, outcomes))]
        measured, out = measure_rows(stack, qubit, basis, new_rng(seed).random(rows))
        kernels.append((measured, (postselect_rows(stack, qubit, basis, measured)[0], out)))
    for picked, (prob, out) in kernels:
        kets = ONE_QUBIT_KETS[basis][picked]
        assert_remainders_match_the_projection(prob, out, stack, [qubit], kets)
        # ``prepare_rows`` of the rest is the collapsed state, |outcome><outcome|_qubit row / sqrt(p).
        collapsed = prepare_rows(out, qubit, basis, picked)
        for r in np.flatnonzero(prob >= ZERO_PROB):
            projector = np.outer(kets[r], kets[r].conj())
            want = kron_reference(stack[r], n, [qubit], projector) / math.sqrt(prob[r])
            np.testing.assert_allclose(collapsed[r], want, rtol=0, atol=1e-12)
    if n < 2:
        return
    pair = data.draw(st.permutations(range(n)))[:2]
    indices = np.array(data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)))
    with np.errstate(all="raise"):
        kernels = [(indices, postselect_bell_rows(stack, *pair, indices))]
        measured, out = measure_bell_rows(stack, *pair, new_rng(seed).random(rows))
        kernels.append((measured, (postselect_bell_rows(stack, *pair, measured)[0], out)))
    for picked, (prob, out) in kernels:
        assert_remainders_match_the_projection(prob, out, stack, pair, BELL_MATRIX.T[picked])


@FAST
@given(ordered_targets(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example((4, [3, 1]), 3, 0)
@example((5, [0, 4]), 2, 1)
@example((6, [5, 4, 3, 2, 1, 0]), 2, 2)
def test_apply_rows_matches_a_permuted_kron(n_targets, rows, seed):
    n, targets = n_targets
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    stack = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    matrix = random_unitary(1 << len(targets), seed)
    statevec._target_axes.cache_clear()  # the first call computes the axes, the second reuses them
    out = apply_rows(stack, targets, matrix)
    assert apply_rows(stack, list(targets), matrix).tobytes() == out.tobytes()
    for r, row in enumerate(stack):
        np.testing.assert_allclose(out[r], kron_reference(row, n, targets, matrix), rtol=0, atol=1e-12)
        assert out[r].tobytes() == apply_rows(stack[r : r + 1], targets, matrix)[0].tobytes()


@FAST
@given(stacks(min_qubits=2), st.data())
def test_postselect_bell_rows_is_postselect_bell_row_by_row(stack, data):
    qubit_a, qubit_b = data.draw(st.permutations(range(num_qubits(stack[0]))))[:2]
    indices = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(stack), max_size=len(stack))))
    before = stack.copy()
    with np.errstate(all="raise"):
        prob, out = postselect_bell_rows(stack, qubit_a, qubit_b, indices)
    for r, state in enumerate(stack):
        one = postselect_bell(state, qubit_a, qubit_b, BellState.from_index(int(indices[r])))
        assert_row_is_the_one_row_result(prob[r], out[r], one)
    np.testing.assert_array_equal(stack, before)


@FAST
@given(stacks(), st.data(), st.sampled_from(Basis), st.integers(0, 2**32 - 1))
def test_measure_rows_collapses_as_postselect_rows(stack, data, basis, seed):
    qubit = data.draw(st.integers(0, num_qubits(stack[0]) - 1))
    with np.errstate(all="raise"):
        outcome, out = measure_rows(stack, qubit, basis, new_rng(seed).random(len(stack)))
        prob, forced = postselect_rows(stack, qubit, basis, outcome)
    assert (prob >= ZERO_PROB).all()
    assert out.tobytes() == forced.tobytes()


@FAST
@given(stacks(min_qubits=2), st.data(), st.integers(0, 2**32 - 1))
def test_measure_bell_rows_collapses_as_postselect_bell_rows(stack, data, seed):
    qubit_a, qubit_b = data.draw(st.permutations(range(num_qubits(stack[0]))))[:2]
    with np.errstate(all="raise"):
        index, out = measure_bell_rows(stack, qubit_a, qubit_b, new_rng(seed).random(len(stack)))
        prob, forced = postselect_bell_rows(stack, qubit_a, qubit_b, index)
    assert (prob >= ZERO_PROB).all()
    assert out.tobytes() == forced.tobytes()


@FAST
@given(stacks(min_qubits=2), st.data())
def test_zero_weight_rows_beside_weighted_ones_raise_no_warning(stack, data):
    qubit_a, qubit_b = data.draw(st.permutations(range(num_qubits(stack[0]))))[:2]
    # |0...0> has no weight on qubit_a = 1 and none on psi+ (index 2) for the pair.
    mixed = np.concatenate([stack, basis_state(num_qubits(stack[0]), 0)[None]])
    forced = np.array([0] * len(stack) + [1])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        kernels = (
            postselect_rows(mixed, qubit_a, Basis.Z, forced),
            postselect_bell_rows(mixed, qubit_a, qubit_b, 2 * forced),
        )
    for prob, out in kernels:
        assert prob[-1] == 0.0 and not out[-1].any()
        weighted = prob >= ZERO_PROB
        np.testing.assert_allclose(np.sum(np.abs(out[weighted]) ** 2, axis=1), 1.0, atol=1e-12)


def assert_one_qubit_path_matches_array_path(state, basis, seed):
    """``measure`` of a one-qubit state equals that of the state joined with |0>: the same bit,
    and the joined state's remainder is the one-qubit remainder joined with |0>.

    ``seed`` None draws with ``LastDraw``; otherwise both sides get equally
    seeded generators.
    """
    rng, joined_rng = (LastDraw(), LastDraw()) if seed is None else (new_rng(seed), new_rng(seed))
    bit, post = measure(state, 0, basis, rng)
    joined_bit, joined_post = measure(tensor(state, basis_state(1, 0)), 0, basis, joined_rng)
    assert bit == joined_bit
    assert post.tobytes() == joined_post[:1].tobytes()  # what remains: ``post`` (x) |0>


@FAST
@given(states(max_qubits=1), st.sampled_from(Basis), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_one_qubit_measure_matches_the_array_path(state, basis, seed):
    assert_one_qubit_path_matches_array_path(state, basis, seed)


@pytest.mark.parametrize("seed", [None, *range(8)])
@pytest.mark.parametrize("length", range(9))
def test_decoy_state_measure_matches_the_array_path(length, seed):
    """Prepared qubits of mixed codes and bases, ``length`` of them drawn from a generator seeded
    by ``length``: each one-qubit measurement matches the array path, and the read of the same
    qubits tapped by ``PassThrough`` equals one measurement of each qubit in turn, draw for draw."""
    draw = new_rng(length)
    codes, x_basis = draw.integers(0, 4, length).tolist(), draw.integers(0, 2, length).tolist()
    states, bases = [DECOYS[code].make_state() for code in codes], [list(Basis)[x] for x in x_basis]
    for state, basis in zip(states, bases):
        assert_one_qubit_path_matches_array_path(state, basis, seed)
    stack_rng, ref_rng = (LastDraw(), LastDraw()) if seed is None else (RecordingRng(seed), new_rng(seed))
    stack = tap(codes, PassThrough(), stack_rng)[0]
    outcomes = read_prepared(stack, x_basis, stack_rng).tolist()
    assert outcomes == [measure_qubit(new_qubit(s), 0, 0, b, ref_rng) for s, b in zip(states, bases)]
    if seed is not None:  # one draw per read, and none for an empty read
        assert stack_rng.calls == ([("random", length)] if length else [])
    assert stack_rng.random() == ref_rng.random()


TAPS = {
    "probe2": EveParams.probe_marking(1.2),
    "probe4": FOUR_DIM_EVE,
    "undetectable": EveParams.undetectable((0.6, 0.8)),  # its Z reads have an outcome of exactly zero weight
}


def read_by_basis(tapped, x_basis, rng) -> list[int]:
    """The tapped read as one ``measure_rows`` per basis, each on its rows' share of one ``rng.random``."""
    if not len(tapped):
        return []
    u = rng.random(len(tapped))
    on_x = np.asarray(x_basis, dtype=bool)
    outcomes = np.empty(len(tapped), dtype=np.intp)
    for basis, rows in ((Basis.Z, ~on_x), (Basis.X, on_x)):
        if rows.any():
            outcomes[rows], _ = measure_rows(tapped[rows], 0, basis, u[rows])
    return outcomes.tolist()


@pytest.mark.parametrize("seed", [None, *range(4)])
@pytest.mark.parametrize("eve", sorted(TAPS))
@pytest.mark.parametrize("length", range(9))
def test_tapped_read_matches_one_measurement_per_basis(length, eve, seed):
    """Prepared qubits of mixed codes, tapped by an entangle-measure probe, read as the decoy check,
    key agreement and both reads of the return check do: the read from the Born sums equals one
    collapsing measurement per basis, draw for draw, and an empty read takes no draw."""
    draw = new_rng(length)
    codes, x_basis = draw.integers(0, 4, length).tolist(), draw.integers(0, 2, length).tolist()
    stack = tap(codes, EntangleMeasure(TAPS[eve]), new_rng(0))[0]
    sifted = np.flatnonzero(draw.integers(0, 2, length)).tolist()
    reflected = sorted(set(range(length)) - set(sifted))
    reads = [
        (range(length), x_basis),  # random bases, as key agreement reads
        (range(length), [code >> 1 for code in codes]),  # preparation bases, as check_decoys reads
        (sifted, [0] * len(sifted)),  # the SIFTed decoys in Z
        (reflected, [codes[i] >> 1 for i in reflected]),  # the reflected decoys in their preparation bases
    ]
    for rows, bases in reads:
        tapped = stack[list(rows)]
        rng, ref_rng = (LastDraw(), LastDraw()) if seed is None else (RecordingRng(seed), new_rng(seed))
        assert read_prepared(tapped, bases, rng).tolist() == read_by_basis(tapped, bases, ref_rng)
        if seed is not None:
            assert rng.calls == ([("random", len(tapped))] if len(tapped) else [])
        assert rng.random() == ref_rng.random()


@FAST
@given(bit_lists)
def test_bits_round_trip_through_bytes_and_str(values):
    bits = Bits(values)
    assert Bits.from_bytes(bits.to_bytes(), len(bits)) == bits
    assert Bits(str(bits)) == bits


@FAST
@given(bit_lists, st.data())
def test_otp_decrypt_inverts_encrypt(message, data):
    key = Bits(data.draw(st.lists(st.integers(0, 1), min_size=len(message), max_size=len(message) + 16)))
    assert otp_decrypt(key, otp_encrypt(key, Bits(message))) == Bits(message)


angles = st.floats(-10.0, 10.0, allow_nan=False)


@FAST
@given(st.one_of(angles.map(EveParams.rotation), angles.map(EveParams.probe_marking)))
def test_eve_params_json_round_trip(params):
    assert EveParams.from_json_dict(json.loads(json.dumps(params.to_json_dict()))) == params


@st.composite
def blind_inputs(draw):
    """(g_a, k_a, delta): three random bit strings of one length n <= 4."""
    n = draw(st.integers(1, 4))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(Bits)
    return draw(bits), draw(bits), draw(bits)


@SLOW
@given(blind_inputs(), st.integers(0, 2**63 - 1))
def test_paired_flip_blindness(inputs, seed):
    g_a, k_a, delta = inputs
    n = len(g_a)
    base = run_full(RunConfig(n=n, seed=seed, g_a=g_a, k_a=k_a, key_mode="stubbed"))
    flipped = run_full(RunConfig(n=n, seed=seed, g_a=g_a ^ delta, k_a=k_a ^ delta, key_mode="stubbed"))
    assert base.canonical_json() == flipped.canonical_json()


# Fuzzed command lines: every subcommand with a random subset of its real
# flags and junk tokens spliced in anywhere.  Each flag takes valid values
# or, one time in four, an invalid one; all are small enough to run in
# milliseconds.
GOLDEN_FILE = str(Path(__file__).resolve().parent / "data" / "golden_run.json")
TRIALS = {"--trials": (("1", "3"), ("0", "-2", str(MAX_TRIALS + 1), str(10**30)))}
SHARED_FLAGS = {  # flag: (valid values, invalid values)
    "--n": (("1", "2", "4"), ("0", "x")),
    "--seed": (("0", "7"), ("-1", "x")),
    "--decoys": (("1", "4"), ("0",)),
    "--threshold": (("0", "0.3"), ("1", "-0.5", "nan")),
    "--hash-bits": (("1", "64"), ("0", "x")),
    "--key-mode": (KEY_MODES, ("bogus",)),
    "--attack": (ATTACK_KINDS, ("bogus",)),
    "--attack-channel": (QUANTUM_CHANNELS, ("nowhere",)),
    "--attack-basis": (INTERCEPT_BASES, ("y",)),
    "--eve-params": ((), ("absent.json",)),
    "--tamper-bit": (("0", "3", "-1"), ("x",)),
    "--withhold-record": (WITHHOLDABLE, ("M_X",)),
}
RUN_FLAGS = {
    **SHARED_FLAGS,
    "--message": (("1", "0110"), ("2",)),
    "--blinding-key": (("0", "1001"), ()),
    "--hash-algorithm": (("sha256", "sha512"), ("shake_128", "nope")),
}
ALL_EXPERIMENT_FLAGS = {
    **SHARED_FLAGS, **TRIALS, "--scope": (DETECTION_SCOPES, ("x",)), "--model": (FORGERY_MODELS, ("x",)),
}
FLAG_OF = {name: flag for flag, name in ATTACK_FLAGS.items()}
# The flags each experiment kind reads.
KIND_FLAGS = {
    kind: {flag: ALL_EXPERIMENT_FLAGS[flag] for flag in (FLAG_OF.get(n, "--" + n.replace("_", "-")) for n in names)}
    for kind, names in EXPERIMENT_FLAGS.items()
}

VERIFY_FLAGS = {**TRIALS, "--seed": SHARED_FLAGS["--seed"], "--corrupt-branch": (("0", "15"), ("16", "99", "-1"))}
# (subcommand, its positional arguments, flags always given so that defaults stay small, flags)
COMMANDS = [
    ("run", (), ("--n",), RUN_FLAGS),
    ("verify-corrections", (), ("--trials",), VERIFY_FLAGS),
    ("experiment", ("detection", "forgery", "blindness", "efficiency", "bogus"), ("--n", "--trials"),
     ALL_EXPERIMENT_FLAGS),
    # Each kind with only the flags it reads, so that most lines reach its experiment function.
    *(("experiment", (kind,), tuple(f for f in ("--n", "--trials") if f in flags), flags)
      for kind, flags in KIND_FLAGS.items()),
    ("replay", (GOLDEN_FILE, "absent.json"), (), {}),
]
JUNK = ("--bogus", "", "-", "--", "x", "--n=", "--trials=-1", "--help", "--version")


@st.composite
def command_lines(draw):
    command, positionals, required, flags = draw(st.sampled_from(COMMANDS))
    command = [command, draw(st.sampled_from(positionals))] if positionals else [command]
    optional = sorted(set(flags) - set(required))
    chosen = [*required, *draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))] if flags else []
    pairs = []
    for flag in chosen:
        valid, invalid = flags[flag]
        values = invalid if not valid or (invalid and draw(st.integers(0, 3)) == 3) else valid
        pairs.append((flag, draw(st.sampled_from(values))))
    tokens = [token for pair in draw(st.permutations(pairs)) for token in pair]
    for junk in draw(st.lists(st.sampled_from(JUNK), max_size=1)):
        tokens.insert(draw(st.integers(0, len(tokens))), junk)
    return [*command, *tokens]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_fuzzed_command_lines_exit_0_to_4_without_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"SQPBS_SEED": "5"}):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and --version
            code = exc.code
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
