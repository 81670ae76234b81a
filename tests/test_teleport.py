"""Carrier state, correction lookup, and the brute-force branch auditor."""

import math
import re

import numpy as np
import pytest

from sqpbs import teleport
from sqpbs.statevec import (
    ZERO_PROB,
    Basis,
    BellState,
    PauliCorrection,
    basis_state,
    fidelity_up_to_phase,
    measure,
    measure_bell,
    new_rng,
    postselect_bell_rows,
    postselect_rows,
)
from sqpbs.teleport import (
    CHI_AMPLITUDE,
    MessageQubit,
    TeleportOutcomes,
    all_outcomes,
    correction_for,
    correction_matrices,
    forced_branches_particle3,
    prepare_chi,
    run_teleportation,
    verify_correction_table,
    _BELL,
    _TABLE,
    _TABLE_COLUMNS,
    _Z1,
    _Z4,
    _forced_both_orders,
    joint_state,
)


def table_states(m: MessageQubit) -> np.ndarray:
    """The table's collapsed-state column for ``m``: particle 3 before correction, one row per branch."""
    coeffs = _TABLE_COLUMNS[0]
    return coeffs[:, 0::2] * m.a + coeffs[:, 1::2] * m.b


class TestCarrierState:
    def test_amplitudes(self):
        chi = prepare_chi()
        plus = 1 / (2 * math.sqrt(2))
        assert CHI_AMPLITUDE == pytest.approx(plus, abs=1e-15)
        expected = {
            0b0000: plus, 0b0011: plus, 0b0110: plus, 0b1001: plus,
            0b1010: plus, 0b1100: plus, 0b0101: -plus, 0b1111: -plus,
        }
        for ket in range(16):
            want = expected.get(ket, 0.0)
            assert chi[ket] == pytest.approx(want, abs=1e-12), f"ket {ket:04b}"

    def test_normalized(self):
        assert np.sum(np.abs(prepare_chi()) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_fresh_copy_each_time(self):
        a, b = prepare_chi(), prepare_chi()
        assert a is not b


class TestMessageQubit:
    def test_basic_states(self):
        np.testing.assert_allclose(MessageQubit(1, 0).state(), [1, 0])
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(MessageQubit.plus().state(), [s, s])
        np.testing.assert_allclose(MessageQubit.minus().state(), [s, -s])

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            MessageQubit(1.0, 1.0)

    def test_random_is_normalized_and_complex(self):
        rng = new_rng(3)
        ms = [MessageQubit.random(rng) for _ in range(20)]
        for m in ms:
            assert abs(abs(m.a) ** 2 + abs(m.b) ** 2 - 1) < 1e-12
        assert any(abs(m.b.imag) > 1e-3 for m in ms)


class TestCorrectionLookup:
    def test_listed_rows(self):
        assert correction_for(TeleportOutcomes(0, BellState.PHI_PLUS, 0)) is PauliCorrection.I
        assert correction_for(TeleportOutcomes(0, BellState.PHI_MINUS, 1)) is PauliCorrection.X
        assert correction_for(TeleportOutcomes(1, BellState.PSI_MINUS, 1)) is PauliCorrection.X

    def test_total_over_16_outcomes(self):
        assert len(all_outcomes()) == 16
        for outcomes in all_outcomes():
            assert correction_for(outcomes) in PauliCorrection

    def test_correction_matrices_stack_the_lookup(self):
        outcomes = all_outcomes()
        got = correction_matrices(
            [o.z1 for o in outcomes], [bit for o in outcomes for bit in o.bell_m2.bits], [o.z4 for o in outcomes]
        )
        assert got.shape == (16, 2, 2)
        for o, matrix in zip(outcomes, got):
            assert np.array_equal(matrix, correction_for(o).matrix)

    def test_each_fixed_z_pair_uses_all_four_corrections(self):
        for z1 in (0, 1):
            for z4 in (0, 1):
                used = {correction_for(TeleportOutcomes(z1, bell, z4)) for bell in BellState}
                assert used == set(PauliCorrection)

    def test_collapsed_state_rows(self):
        a, b = 0.6, 0.8
        m = MessageQubit(a, b)
        states = table_states(m)
        got = states[all_outcomes().index(TeleportOutcomes(0, BellState.PHI_PLUS, 1))]
        np.testing.assert_allclose(got, [-b, a], atol=1e-12)  # a|1> - b|0>
        got = states[all_outcomes().index(TeleportOutcomes(1, BellState.PSI_PLUS, 0))]
        np.testing.assert_allclose(got, [a, b], atol=1e-12)  # a|0> + b|1>

    def test_collapsed_state_unit_norm_for_basis_message(self):
        for state in table_states(MessageQubit(1, 0)):
            assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)


def reference_teleportation(m: MessageQubit, rng) -> tuple[TeleportOutcomes, np.ndarray]:
    """The sampled cascade on one state, with the one-state forms: the reference of ``run_teleportation``."""
    state = teleport.joint_state(m)
    z1, state = measure(state, teleport.Q_1, Basis.Z, rng)  # (m, 2, 3, 4) remain
    bell, state = measure_bell(state, 0, 1, rng)  # (3, 4)
    z4, particle3 = measure(state, 1, Basis.Z, rng)  # (3)
    outcomes = TeleportOutcomes(z1, bell, z4)
    return outcomes, correction_for(outcomes).matrix @ particle3


class TestRunTeleportation:
    def test_draw_for_draw_equal_to_the_one_state_reference(self):
        fixed = [MessageQubit(1, 0), MessageQubit(0, 1), MessageQubit.plus(), MessageQubit.minus()]
        for seed in range(128):
            m = fixed[seed] if seed < len(fixed) else MessageQubit.random(new_rng(10_000 + seed))
            rng, ref = new_rng(seed), new_rng(seed)
            for _ in range(3):
                outcomes, recovered = run_teleportation(m, rng)
                want_outcomes, want = reference_teleportation(m, ref)
                assert outcomes == want_outcomes
                assert recovered.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_basis_message_always_recovered(self):
        rng = new_rng(9)
        m = MessageQubit(1, 0)
        for _ in range(24):
            _, recovered = run_teleportation(m, rng)
            assert fidelity_up_to_phase(recovered, m.state()) == pytest.approx(1.0, abs=1e-10)

    def test_minus_message_recovered_on_sampled_branches(self):
        rng = new_rng(10)
        m = MessageQubit.minus()
        seen = set()
        for _ in range(120):
            outcomes, recovered = run_teleportation(m, rng)
            seen.add((outcomes.z1, outcomes.bell_m2, outcomes.z4))
            assert fidelity_up_to_phase(recovered, m.state()) == pytest.approx(1.0, abs=1e-10)
        assert len(seen) > 10  # samples spread over the branch space

    def test_branch_distribution_uniform(self):
        rng = new_rng(11)
        m = MessageQubit(0.6, 0.8)
        counts = {}
        trials = 3200
        for _ in range(trials):
            outcomes, _ = run_teleportation(m, rng)
            key = (outcomes.z1, outcomes.bell_m2, outcomes.z4)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        sigma = math.sqrt(trials * (1 / 16) * (15 / 16))
        for key, count in counts.items():
            assert abs(count - trials / 16) < 4 * sigma, key


class TestBranchAuditor:
    def test_all_branches_pass_for_real_and_complex_messages(self):
        rng = new_rng(12)
        messages = [
            MessageQubit(0.6, 0.8),
            MessageQubit(1, 0),
            MessageQubit(1 / math.sqrt(2), 1j / math.sqrt(2)),
        ] + [MessageQubit.random(rng) for _ in range(25)]
        for m in messages:
            report = verify_correction_table(m)
            assert report.all_pass(), report.failures()

    def test_branch_probabilities_exact_sixteenth(self):
        report = verify_correction_table(MessageQubit(0.28, 0.96))
        for branch in report.branches:
            assert abs(branch.probability - 1 / 16) <= 1e-12

    def test_collapsed_column_matches_projection(self):
        report = verify_correction_table(MessageQubit.random(new_rng(13)))
        for branch in report.branches:
            assert branch.collapsed_fidelity >= 1 - 1e-10

    def test_order_independence(self):
        report = verify_correction_table(MessageQubit.random(new_rng(14)))
        assert all(b.order_independent for b in report.branches)

    def test_phase_flipped_branches_are_the_four_minus_rows(self):
        report = verify_correction_table(MessageQubit(0.6, 0.8))
        flipped = {(b.outcomes.z1, b.outcomes.bell_m2, b.outcomes.z4)
                   for b in report.branches if b.recovery_phase.real < 0}
        assert flipped == {
            (0, BellState.PSI_PLUS, 1),
            (0, BellState.PSI_MINUS, 1),
            (1, BellState.PSI_PLUS, 1),
            (1, BellState.PSI_MINUS, 1),
        }

    def test_correction_unique_for_generic_message(self):
        report = verify_correction_table(MessageQubit(0.6, 0.8))
        for branch in report.branches:
            assert branch.fidelity_one_corrections == (correction_for(branch.outcomes),)
            assert len(branch.fidelity_one_corrections) <= 1

    def test_degeneracy_recorded_for_balanced_message(self):
        # For |a| = |b| two corrections tie at fidelity 1 on every branch.
        report = verify_correction_table(MessageQubit.plus())
        assert all(len(b.fidelity_one_corrections) == 2 for b in report.branches)
        assert all(len(b.fidelity_one_corrections) > 1 for b in report.branches)
        assert report.all_pass()

    def test_corrupted_lookup_is_caught_and_named(self):
        key = (0, BellState.PHI_MINUS, 0)
        bad_table = dict(_TABLE)
        coeffs, _ = bad_table[key]
        bad_table[key] = (coeffs, PauliCorrection.X)  # should be sigma_z
        report = verify_correction_table(MessageQubit(0.6, 0.8), check_table=bad_table)
        failures = report.failures()
        assert len(failures) == 1
        bad = failures[0].outcomes
        assert (bad.z1, bad.bell_m2, bad.z4) == key

    @pytest.mark.parametrize("branch", range(16))
    def test_corrupted_collapsed_column_fails_only_that_branch(self, branch):
        key = list(_TABLE)[branch]
        (c0a, c0b, c1a, c1b), correction = _TABLE[key]
        bad_table = {**_TABLE, key: ((c0a, c0b, -c1a, -c1b), correction)}  # |1> amplitude negated
        report = verify_correction_table(MessageQubit(0.6, 0.8), check_table=bad_table)
        failed = [b for b in report.branches if b.collapsed_fidelity < 1 - report.tolerance]
        assert [(b.outcomes.z1, b.outcomes.bell_m2, b.outcomes.z4) for b in failed] == [key]
        assert report.failures() == failed
        assert failed[0].corrected_fidelity >= 1 - report.tolerance

    def test_zero_weight_branch_is_named(self, monkeypatch):
        monkeypatch.setattr(teleport, "prepare_chi", lambda: basis_state(4, 0))
        # Particles 1 and 4 of |0000> read 0, so no branch with z1 = 1 or z4 = 1 has weight.
        zero = TeleportOutcomes(0, BellState.PHI_PLUS, 1)
        with pytest.raises(AssertionError, match=re.escape(f"branch {zero} unexpectedly has zero probability")):
            verify_correction_table(MessageQubit(0.6, 0.8))

    def test_forced_branch_matches_collapsed_column(self):
        m = MessageQubit.random(new_rng(15))
        for prob, particle3, expected in zip(*forced_branches_particle3(m), table_states(m), strict=True):
            assert prob == pytest.approx(1 / 16, abs=1e-12)
            assert fidelity_up_to_phase(particle3, expected) == pytest.approx(1.0, abs=1e-10)


def reverse_cascade(m: MessageQubit) -> tuple[np.ndarray, np.ndarray]:
    """Every branch projected on the joint state (m, 1, 2, 3, 4) in reverse order, without relabeling:
    Z on particle 4, Bell on (m, 2), then Z on particle 1."""
    stack = np.repeat(joint_state(m)[None], 16, axis=0)
    prob = np.ones(16)
    for project, where, outcomes in (
        (postselect_rows, (4, Basis.Z), _Z4),  # (m, 1, 2, 3) remain
        (postselect_bell_rows, (0, 2), _BELL),  # (1, 3)
        (postselect_rows, (0, Basis.Z), _Z1),  # (3)
    ):
        p, stack = project(stack, *where, outcomes)
        prob *= np.where(p < ZERO_PROB, 0.0, p)
    return prob, stack


class TestBothOrders:
    """The audit's 32-row stack: the top half in the sampled order, the bottom half relabeled to project
    particle 4 first."""

    def test_halves_are_the_forward_and_the_unrelabeled_reverse_cascade(self):
        rng = new_rng(16)
        for _ in range(20):
            m = MessageQubit.random(rng)
            prob, got3 = _forced_both_orders(m)
            forward_prob, forward3 = forced_branches_particle3(m)
            assert prob[:16].tobytes() == forward_prob.tobytes()
            assert got3[:16].tobytes() == forward3.tobytes()
            reverse_prob, reverse3 = reverse_cascade(m)
            np.testing.assert_allclose(prob[16:], reverse_prob, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got3[16:], reverse3, rtol=0, atol=1e-12)

    def test_a_wrong_relabeling_fails_the_order_check(self, monkeypatch):
        # Particles 1 and 2 trade places instead of 1 and 4: the bottom half no longer measures the same branches.
        monkeypatch.setattr(teleport, "_REVERSED_AXES", (0, 2, 1, 3, 4))
        report = verify_correction_table(MessageQubit(0.6, 0.8))
        out_of_order = [b for b in report.branches if not b.order_independent]
        assert out_of_order
        assert report.failures() == out_of_order
        assert not report.all_pass()

    def test_one_audit_makes_three_projection_calls(self, monkeypatch):
        calls = {"postselect_rows": 0, "postselect_bell_rows": 0}
        for name in calls:
            kernel = getattr(teleport, name)

            def counted(*args, kernel=kernel, name=name):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(teleport, name, counted)
        assert verify_correction_table(MessageQubit.random(new_rng(17))).all_pass()
        assert calls == {"postselect_rows": 2, "postselect_bell_rows": 1}


class TestTamperedOutcome:
    def test_any_single_bell_bit_flip_breaks_recovery_of_generic_message(self):
        """Correcting for a wrong Bell value leaves fidelity < 1.

        Holds for a generic message (here |a| != |b|); flip either bit
        of the 2-bit Bell encoding on any branch.
        """
        m = MessageQubit(0.6, 0.8)
        target = m.state()
        for outcomes, particle3 in zip(all_outcomes(), forced_branches_particle3(m)[1], strict=True):
            high, low = outcomes.bell_m2.bits
            for flipped in (BellState.from_index(2 * (high ^ 1) + low), BellState.from_index(2 * high + (low ^ 1))):
                wrong = correction_for(TeleportOutcomes(outcomes.z1, flipped, outcomes.z4))
                recovered = wrong.matrix @ particle3
                assert fidelity_up_to_phase(recovered, target) < 1 - 1e-3

    def test_low_bit_flip_always_flips_blinded_readout(self):
        # For |+>/|-> messages the low Bell bit decides the X readout.
        for m in (MessageQubit.plus(), MessageQubit.minus()):
            target = m.state()
            for outcomes, particle3 in zip(all_outcomes(), forced_branches_particle3(m)[1], strict=True):
                high, low = outcomes.bell_m2.bits
                wrong = correction_for(
                    TeleportOutcomes(outcomes.z1, BellState.from_index(2 * high + (low ^ 1)), outcomes.z4)
                )
                recovered = wrong.matrix @ particle3
                assert fidelity_up_to_phase(recovered, target) == pytest.approx(0.0, abs=1e-10)

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            TeleportOutcomes(2, BellState.PHI_PLUS, 0)
        with pytest.raises(ValueError):
            TeleportOutcomes(0, BellState.PHI_PLUS, -1)
