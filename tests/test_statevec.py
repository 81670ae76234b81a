"""Statevector core: construction, operations, measurement statistics."""

import math

import numpy as np
import pytest

from sqpbs.statevec import (
    Basis,
    BellState,
    HADAMARD,
    I_SIGMA_Y,
    PauliCorrection,
    SIGMA_X,
    SIGMA_Z,
    ZERO_PROB,
    apply_unitary,
    basis_state,
    born_outcomes,
    fidelity_up_to_phase,
    ket_minus,
    ket_plus,
    measure,
    measure_bell,
    new_rng,
    postselect,
    postselect_bell,
    postselect_bell_rows,
    tensor,
)
from sqpbs.teleport import prepare_chi
from stubs import LastDraw

SQRT1_2 = 1 / math.sqrt(2)
# Largest double below 1: squared, it rounds to 1 - 2**-52.
JUST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class TestBasisStates:
    def test_single_zero(self):
        s = basis_state(1, 0)
        np.testing.assert_allclose(s, [1, 0])

    def test_two_qubit_three_is_11(self):
        np.testing.assert_allclose(basis_state(2, 3), [0, 0, 0, 1])

    def test_bit_convention_qubit0_is_msb(self):
        # |0101> = index 5 on 4 qubits
        s = basis_state(4, 5)
        assert abs(s[0b0101]) ** 2 == 1.0
        p0 = postselect(s, 0, Basis.Z, 0)[0]
        assert p0 == 1.0  # qubit 0 reads 0
        p1 = postselect(s, 1, Basis.Z, 1)[0]
        assert p1 == 1.0  # qubit 1 reads 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)
        with pytest.raises(ValueError):
            basis_state(2, -1)

    def test_too_many_qubits(self):
        with pytest.raises(ValueError):
            basis_state(9, 0)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(np.array([1.0, 1.0], dtype=complex), [0], SIGMA_X)


class TestTensor:
    def test_zero_one(self):
        s = tensor(basis_state(1, 0), basis_state(1, 1))
        np.testing.assert_allclose(s, [0, 1, 0, 0])

    def test_plus_zero(self):
        s = tensor(ket_plus(), basis_state(1, 0))
        np.testing.assert_allclose(s, [SQRT1_2, 0, SQRT1_2, 0])

    def test_overflow(self):
        with pytest.raises(ValueError):
            tensor(basis_state(5, 0), basis_state(4, 0))

    def test_joint_state_matches_branch_expansion(self):
        """The 32-amplitude message+carrier state equals its branch sum.

        Independent oracle: rebuild the state as the sum over the 16
        measurement branches (1/4) |z1> |bell>_{m,2} |z4> |psi>_3 with
        the branch states of the teleportation expansion, placing each
        amplitude by explicit index arithmetic rather than Kronecker
        products.
        """
        a, b = 0.6, 0.8j
        xi = np.array([a, b], dtype=complex)
        joint = tensor(xi, prepare_chi())

        # branch -> particle-3 coefficients (c0a, c0b, c1a, c1b)
        branch_states = {
            (0, BellState.PHI_PLUS, 0): (1, 0, 0, 1),
            (0, BellState.PHI_PLUS, 1): (0, -1, 1, 0),
            (0, BellState.PHI_MINUS, 0): (1, 0, 0, -1),
            (0, BellState.PHI_MINUS, 1): (0, 1, 1, 0),
            (0, BellState.PSI_PLUS, 0): (0, 1, 1, 0),
            (0, BellState.PSI_PLUS, 1): (-1, 0, 0, 1),
            (0, BellState.PSI_MINUS, 0): (0, -1, 1, 0),
            (0, BellState.PSI_MINUS, 1): (-1, 0, 0, -1),
            (1, BellState.PHI_PLUS, 0): (0, 1, 1, 0),
            (1, BellState.PHI_PLUS, 1): (1, 0, 0, -1),
            (1, BellState.PHI_MINUS, 0): (0, -1, 1, 0),
            (1, BellState.PHI_MINUS, 1): (1, 0, 0, 1),
            (1, BellState.PSI_PLUS, 0): (1, 0, 0, 1),
            (1, BellState.PSI_PLUS, 1): (0, 1, -1, 0),
            (1, BellState.PSI_MINUS, 0): (1, 0, 0, -1),
            (1, BellState.PSI_MINUS, 1): (0, -1, -1, 0),
        }
        expected = np.zeros(32, dtype=complex)
        for (z1, bell, z4), (c0a, c0b, c1a, c1b) in branch_states.items():
            psi3 = np.array([c0a * a + c0b * b, c1a * a + c1b * b])
            bell_amp = bell.vector.reshape(2, 2)  # (m, particle2)
            for bm in range(2):
                for b2 in range(2):
                    for b3 in range(2):
                        # qubit order (m, 1, 2, 3, 4), MSB first
                        idx = (bm << 4) | (z1 << 3) | (b2 << 2) | (b3 << 1) | z4
                        expected[idx] += 0.25 * bell_amp[bm, b2] * psi3[b3]
        np.testing.assert_allclose(joint, expected, atol=1e-12)


class TestApplyUnitary:
    def test_sigma_x_flips(self):
        s = apply_unitary(basis_state(1, 0), [0], SIGMA_X)
        np.testing.assert_allclose(s, [0, 1])

    def test_i_sigma_y_correction_row(self):
        # i_sigma_y maps a|1> - b|0> back to a|0> + b|1>
        a, b = 0.6, 0.8
        s = apply_unitary(np.array([-b, a], dtype=complex), [0], I_SIGMA_Y)
        np.testing.assert_allclose(s, [a, b], atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(basis_state(1, 0), [0], np.array([[1, 1], [0, 1]], dtype=complex))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(basis_state(2, 0), [0, 0], np.eye(4, dtype=complex))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply_unitary(basis_state(2, 0), [2], SIGMA_X)

    def test_round_trip_adjoint(self):
        rng = new_rng(11)
        state = random_state(4, rng)
        u = random_unitary(4, rng)
        targets = [3, 1]
        forth = apply_unitary(state, targets, u)
        back = apply_unitary(forth, targets, u.conj().T)
        np.testing.assert_allclose(back, state, atol=1e-10)

    def test_multi_qubit_matches_kron_on_adjacent_targets(self):
        rng = new_rng(12)
        state = random_state(3, rng)
        u = random_unitary(4, rng)
        got = apply_unitary(state, [0, 1], u)
        expected = np.kron(u, np.eye(2)) @ state
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_norm_preserved_through_random_circuit(self):
        rng = new_rng(13)
        state = random_state(5, rng)
        for _ in range(40):
            q = int(rng.integers(5))
            state = apply_unitary(state, [q], random_unitary(2, rng))
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12


def random_state(n: int, rng) -> np.ndarray:
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return raw / np.linalg.norm(raw)


def random_unitary(dim: int, rng) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMeasure:
    def test_z_on_zero_deterministic(self):
        # The measured qubit leaves the state; the spectator |+> remains.
        bit, post = measure(tensor(basis_state(1, 0), ket_plus()), 0, Basis.Z, new_rng(0))
        assert bit == 0
        np.testing.assert_allclose(post, ket_plus())

    def test_x_on_minus_deterministic(self):
        bit, post = measure(tensor(ket_minus(), basis_state(1, 1)), 0, Basis.X, new_rng(0))
        assert bit == 1
        assert fidelity_up_to_phase(post, basis_state(1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_chi_qubit1_is_unbiased(self):
        # Sum |amplitude|^2 over the carrier's kets with particle-2 bit 0:
        # 4 of the 8 kets, each 1/8, so p0 = 1/2.
        chi = prepare_chi()
        expected_p0 = sum(
            abs(chi[k]) ** 2 for k in range(16) if not (k >> 2) & 1
        )
        assert expected_p0 == pytest.approx(0.5, abs=1e-12)
        p0, p1 = (postselect(chi, 1, Basis.Z, bit)[0] for bit in (0, 1))
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_collapse_renormalizes(self):
        rng = new_rng(21)
        state = random_state(3, rng)
        for q in reversed(range(3)):  # each measured qubit leaves the state
            _, state = measure(state, q, Basis.Z, rng)
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12

    def test_born_statistics(self):
        """Empirical frequencies match Born probabilities within 3 sigma."""
        amps = [0.6, 0.8]
        p1 = 0.64
        trials = 100_000
        rng = new_rng(42)
        state = np.array(amps, dtype=complex)
        ones = sum(measure(state, 0, Basis.Z, rng)[0] for _ in range(trials))
        sigma = math.sqrt(p1 * (1 - p1) / trials)
        assert abs(ones / trials - p1) < 3 * sigma

    def test_draw_past_rounded_total_takes_the_weighted_outcome(self):
        state = np.array([JUST_BELOW_ONE, 0], dtype=complex)
        bit, post = measure(state, 0, Basis.Z, LastDraw())
        assert bit == 0
        np.testing.assert_allclose(post, [1])  # no qubit remains: one unit amplitude

    def test_born_outcomes_match_the_scalar_rule(self):
        def scalar_rule(p0, p1, u):
            outcome = 0 if u < p0 else 1
            if (p0, p1)[outcome] < ZERO_PROB:
                outcome ^= 1
            return outcome

        rng = new_rng(8)
        p0 = np.concatenate([[0.0, 1.0, JUST_BELOW_ONE, 0.5, 0.5, 1e-16, 0.25], rng.random(200)])
        p1 = np.concatenate([[1.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.75], 1.0 - p0[7:]])
        u = np.concatenate([[0.0, JUST_BELOW_ONE, JUST_BELOW_ONE, 0.5, 0.0, 0.0, 0.25], rng.random(200)])
        expected = [scalar_rule(*args) for args in zip(p0.tolist(), p1.tolist(), u.tolist())]
        assert born_outcomes(p0, p1, u).tolist() == expected
        assert expected[:7] == [1, 0, 0, 1, 0, 1, 1]

    def test_same_seed_same_outcomes(self):
        state = tensor(ket_plus(), ket_plus())
        seq1 = [measure(state, 0, Basis.Z, new_rng(7))[0] for _ in range(50)]
        seq2 = [measure(state, 0, Basis.Z, new_rng(7))[0] for _ in range(50)]
        assert seq1 != [0] * 50  # genuinely random-looking
        # bit-exact reproducibility of a whole stream
        rng_a, rng_b = new_rng(123), new_rng(123)
        stream_a = [measure(state, 1, Basis.X, rng_a)[0] for _ in range(200)]
        stream_b = [measure(state, 1, Basis.X, rng_b)[0] for _ in range(200)]
        assert stream_a == stream_b


def bell_probabilities(state: np.ndarray, qubit_a: int, qubit_b: int) -> np.ndarray:
    """The four Bell outcomes' Born probabilities on (a, b): ``postselect_bell_rows`` on four copies of ``state``."""
    return postselect_bell_rows(np.tile(state, (4, 1)), qubit_a, qubit_b, np.arange(4))[0]


class TestBellMeasurement:
    def test_phi_minus_is_fixed_point(self):
        # The measured pair leaves the state; the spectator |+> remains.
        phi_minus = np.array([SQRT1_2, 0, 0, -SQRT1_2], dtype=complex)
        outcome, post = measure_bell(tensor(phi_minus, ket_plus()), 0, 1, new_rng(0))
        assert outcome is BellState.PHI_MINUS
        assert fidelity_up_to_phase(post, ket_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_00_splits_between_phi_plus_and_minus(self):
        probs = bell_probabilities(basis_state(2, 0), 0, 1)
        np.testing.assert_allclose(probs, [0.5, 0.5, 0, 0], atol=1e-12)
        rng = new_rng(5)
        seen = {measure_bell(basis_state(2, 0), 0, 1, rng)[0] for _ in range(64)}
        assert seen == {BellState.PHI_PLUS, BellState.PHI_MINUS}

    def test_conditional_quarters_on_joint_state(self):
        # Project the joint message+carrier state on particle 1 = |0>,
        # then each Bell outcome on (m, particle 2) has probability 1/4.
        joint = tensor(np.array([0.6, 0.8j], dtype=complex), prepare_chi())
        prob1, conditioned = postselect(joint, 1, Basis.Z, 0)  # (m, 2, 3, 4) remain
        assert prob1 == pytest.approx(0.5, abs=1e-12)
        probs = bell_probabilities(conditioned, 0, 1)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)

    def test_qubit_order_matters(self):
        # psi+ on (a, b) reads psi+ on (b, a) too, but phi on asymmetric states differs
        state = np.array([0, 1, 0, 0], dtype=complex)  # |01>
        p_ab = bell_probabilities(state, 0, 1)
        p_ba = bell_probabilities(state, 1, 0)
        np.testing.assert_allclose(p_ab, [0, 0, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sorted(p_ab), sorted(p_ba), atol=1e-12)

    def test_postselect_bell_zero_probability(self):
        prob, state = postselect_bell(basis_state(2, 0), 0, 1, BellState.PSI_PLUS)
        assert prob == pytest.approx(0.0, abs=1e-15)
        assert state is None

    def test_draw_past_rounded_total_takes_the_last_weighted_outcome(self):
        phi_plus = np.array([JUST_BELOW_ONE * SQRT1_2, 0, 0, JUST_BELOW_ONE * SQRT1_2], dtype=complex)
        assert bell_probabilities(phi_plus, 0, 1).sum() < LastDraw().random()
        outcome, post = measure_bell(phi_plus, 0, 1, LastDraw())
        assert outcome is BellState.PHI_PLUS
        assert np.all(np.isfinite(post))
        assert fidelity_up_to_phase(post, np.ones(1)) == pytest.approx(1.0, abs=1e-12)  # no qubit remains

    def test_classical_bit_mapping(self):
        assert BellState.PHI_PLUS.bits == (0, 0)
        assert BellState.PHI_MINUS.bits == (0, 1)
        assert BellState.PSI_PLUS.bits == (1, 0)
        assert BellState.PSI_MINUS.bits == (1, 1)


class TestFidelity:
    def test_identical(self):
        assert fidelity_up_to_phase(basis_state(1, 0), basis_state(1, 0)) == 1.0

    def test_orthogonal(self):
        assert fidelity_up_to_phase(basis_state(1, 0), basis_state(1, 1)) == 0.0

    def test_global_phase_ignored(self):
        a, b = 0.6, 0.8
        s1 = np.array([a, b], dtype=complex)
        s2 = np.array([-a, -b], dtype=complex)
        assert fidelity_up_to_phase(s1, s2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_up_to_phase(basis_state(1, 0), basis_state(2, 0))


class TestPauliCorrections:
    def test_matrices_match_definitions(self):
        np.testing.assert_allclose(PauliCorrection.I.matrix, np.eye(2))
        np.testing.assert_allclose(PauliCorrection.X.matrix, SIGMA_X)
        np.testing.assert_allclose(PauliCorrection.IY.matrix, [[0, 1], [-1, 0]])
        np.testing.assert_allclose(PauliCorrection.Z.matrix, SIGMA_Z)

    def test_all_unitary(self):
        for p in PauliCorrection:
            m = p.matrix
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_hadamard_squares_to_identity(self):
        np.testing.assert_allclose(HADAMARD @ HADAMARD, np.eye(2), atol=1e-12)
